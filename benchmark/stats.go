package main

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"text/tabwriter"
	"time"
)

// numRounds is how many rounds a run's timed phases are cut into. A
// round runs each phase once, for one segment after a short warm-up, so
// the segments of a phase are spread over the whole run instead of
// sitting next to each other. Every timing and throughput metric is
// computed per segment and reported as the median of the segments: the
// shared sandbox slows down for seconds at a time, and a slow spell then
// moves some segments of every phase, not every segment of one.
const numRounds = 10

// metric is one reported number: its value, unit and how many raw
// samples stand behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metrics is the result of one run, keyed by metric name.
type metrics map[string]metric

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// set records a metric. A name outside the benchmark contract's
// alphabet, or set twice, is a bug in the benchmark itself.
func (m metrics) set(name string, value float64, unit string, samples int) {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("benchmark: invalid metric name %q", name))
	}
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("benchmark: metric %q set twice", name))
	}
	m[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// percentile returns the p-quantile (0 < p <= 1) of an ascending slice
// by the nearest-rank rule: the smallest value with at least p of the
// samples at or below it. An empty slice has no percentile (NaN).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value (mean of the two middle values for an
// even count) without modifying vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is (max − min) ÷ median: how far apart the segments of one
// phase landed.
func spread(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / median(vs)
}

// sample is one completed operation of a segment: when it counts
// (offset from the segment start: completion time in a closed loop, due
// time in an open loop) and how long it took.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// segment is the timing of one phase in one round: a warm-up whose
// samples are dropped, then the measured time.
type segment struct {
	warm    time.Duration
	measure time.Duration
}

// segmentOf gives a phase's share of one round a warm-up of one sixth
// and measures the rest.
func segmentOf(total time.Duration) segment {
	return segment{warm: total / 6, measure: total - total/6}
}

func (s segment) total() time.Duration { return s.warm + s.measure }

// latencies returns the latencies of the samples that count in the
// measured part of the segment, in microseconds, ascending.
func (s segment) latencies(samples []sample) []float64 {
	var out []float64
	for _, x := range samples {
		if x.at >= s.warm && x.at < s.total() {
			out = append(out, float64(x.lat)/float64(time.Microsecond))
		}
	}
	sort.Float64s(out)
	return out
}

// phaseStats are the reported numbers of one phase: each is computed
// per segment (one per round) and is the median over the segments.
type phaseStats struct {
	perSec  float64 // completed operations per second
	p50     float64 // µs
	p90     float64
	p99     float64
	p999    float64
	samples int     // samples that counted
	spread  float64 // (max−min)/median of the per-segment throughput
}

func (s segment) stats(rounds [][]sample) phaseStats {
	var rate, p50, p90, p99, p999 []float64
	n := 0
	for _, samples := range rounds {
		lat := s.latencies(samples)
		n += len(lat)
		rate = append(rate, float64(len(lat))/s.measure.Seconds())
		if len(lat) == 0 {
			continue
		}
		p50 = append(p50, percentile(lat, 0.50))
		p90 = append(p90, percentile(lat, 0.90))
		p99 = append(p99, percentile(lat, 0.99))
		p999 = append(p999, percentile(lat, 0.999))
	}
	return phaseStats{
		perSec: median(rate), p50: median(p50), p90: median(p90),
		p99: median(p99), p999: median(p999), samples: n, spread: spread(rate),
	}
}

// medianDur is the median of durations, in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d) / float64(unit)
	}
	return median(vs)
}

// printTable writes the metrics as an aligned table, sorted by name.
func printTable(w io.Writer, workload string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tvalue\tunit\tsamples\n")
	for _, name := range names {
		v := m[name]
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%d\n", workload, name, v.Value, v.Unit, v.Samples)
	}
	tw.Flush()
}
