package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"semtree"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {0.1, 10}, {0.01, 10}, {1, 100},
	} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
}

// A segment drops its warm-up, rates what is left over the measured
// time, and the phase reports the median over its segments — so one
// slow segment moves nothing.
func TestSegmentMedians(t *testing.T) {
	sg := segment{warm: 100 * time.Millisecond, measure: 500 * time.Millisecond}
	round := func(n int, lat time.Duration) []sample {
		out := []sample{
			{at: 50 * time.Millisecond, lat: time.Second},  // warm-up: dropped
			{at: 700 * time.Millisecond, lat: time.Second}, // after the segment closed: dropped
		}
		for i := 0; i < n; i++ {
			out = append(out, sample{at: sg.warm + time.Duration(i)*time.Millisecond, lat: lat})
		}
		return out
	}
	rounds := [][]sample{
		round(100, 10*time.Microsecond),
		round(100, 10*time.Microsecond),
		round(50, 900*time.Microsecond), // the slow spell
		round(110, 12*time.Microsecond),
		round(90, 8*time.Microsecond),
	}
	st := sg.stats(rounds)
	if st.perSec != 200 { // 100 samples in 0.5 s is the median segment
		t.Errorf("perSec = %v, want 200", st.perSec)
	}
	if st.p50 != 10 {
		t.Errorf("p50 = %v µs, want 10", st.p50)
	}
	if st.samples != 450 {
		t.Errorf("samples = %d, want 450", st.samples)
	}
	if want := (220.0 - 100.0) / 200.0; math.Abs(st.spread-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", st.spread, want)
	}
}

// An open loop times every arrival from the instant it was due: when
// one send stalls, the arrivals behind it are sent late, none is
// dropped, their latency includes the wait, and the lateness is
// reported.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		rate    = 200.0 // one arrival every 5 ms
		stallAt = 10
		stall   = 60 * time.Millisecond
	)
	sg := segment{warm: 0, measure: 250 * time.Millisecond}
	var mu sync.Mutex
	seen := map[int]int{}
	res := openLoop(context.Background(), rate, 1, sg, 0, func(_ context.Context, i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	})
	if res.attempted != 50 || len(res.samples) != 50 {
		t.Fatalf("attempted %d, %d samples; want all 50 arrivals sent", res.attempted, len(res.samples))
	}
	for i := 0; i < 50; i++ {
		if seen[i] != 1 {
			t.Fatalf("arrival %d sent %d times", i, seen[i])
		}
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].at < res.samples[j].at })
	// The arrival behind the stalled one was due 5 ms into a 60 ms
	// stall: from its due instant it waited at least ~55 ms.
	if got := res.samples[stallAt+1].lat; got < stall-10*time.Millisecond {
		t.Errorf("arrival behind the stall: latency %v, want at least %v (timed from due, not from send)", got, stall-10*time.Millisecond)
	}
	// An arrival before the stall was on time.
	if got := res.samples[2].lat; got > 20*time.Millisecond {
		t.Errorf("arrival before the stall: latency %v", got)
	}
	var worst time.Duration
	for _, l := range res.late {
		worst = max(worst, l)
	}
	if worst < stall-10*time.Millisecond {
		t.Errorf("worst lateness %v, want the stall (%v) reported", worst, stall)
	}
}

func TestGoodputCountsFailuresAgainstTheLimit(t *testing.T) {
	r := loadResult{attempted: 4, failed: 1, samples: []sample{
		{lat: time.Millisecond}, {lat: 2 * time.Millisecond}, {lat: 3 * time.Millisecond},
	}}
	if got := goodput(r, 2*time.Millisecond); got != 0.5 {
		t.Errorf("goodput = %v, want 0.5 (two of four sent made the limit)", got)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"qps", "p50_us", "core.tree.knn_us", "client.p999_us", "a-b", "9lives"} {
		if !metricNameRE.MatchString(ok) {
			t.Errorf("%q should be a valid metric name", ok)
		}
	}
	for _, bad := range []string{"", "p50 us", "µs", ".hidden", "a/b", "x\n", string(make([]byte, 65))} {
		if metricNameRE.MatchString(bad) {
			t.Errorf("%q should not be a valid metric name", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an invalid metric name should panic")
		}
	}()
	metrics{}.set("not valid", 1, "s", 1)
}

// contract is the part of BENCHMARK.json the tests hold the program to.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runSmoke(t *testing.T, dir, workload, trace string, tamper func(*config)) (int, resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-smoke", "-workload", workload, "-seed", "7", "-trace", trace,
		"-out", filepath.Join(dir, "out"), "-build-dir", filepath.Join(dir, "build")}
	code := mainCode(context.Background(), args, &stdout, &stderr, tamper)
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("%s: last line of stdout is not the result object: %v\nstdout: %s\nstderr: %s", workload, err, &stdout, &stderr)
	}
	return code, res, stderr.String()
}

// Every workload, untraced and traced, end to end on a tenth of the
// corpus: the run is correct, nothing fails, and the metrics printed
// are exactly the ones BENCHMARK.json names.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	c := readContract(t)
	dir := t.TempDir()
	for _, w := range c.Workloads {
		for trace, want := range map[string][]struct{ Name string }{"0": c.EndToEnd, "1": c.PerLayer} {
			code, res, stderr := runSmoke(t, dir, w.Name, trace, nil)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, correct %v, %d of %d failed\n%s", w.Name, trace, code, res.Correct, res.Failed, res.Attempted, stderr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %s: metric %s missing", w.Name, trace, m.Name)
				} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit == "" {
					t.Errorf("%s trace %s: metric %s = %v %q", w.Name, trace, m.Name, v.Value, v.Unit)
				}
				if trace == "0" && ok && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want positive", w.Name, m.Name, v.Value)
				}
			}
		}
		checkTraceFile(t, filepath.Join(dir, "out", "trace-"+w.Name+".jsonl"))
	}
}

// The trace file holds one span per line, and fabric calls hang under
// the span that caused them.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[int]string{}
	parented := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.End < s.Start {
			t.Fatalf("%s: span %d ends before it starts", path, s.ID)
		}
		names[s.ID] = s.Name
		if s.Parent != 0 {
			parented++
			if s.Name == "cluster.call" {
				switch names[s.Parent] {
				case "core.sched", "core.tree.knn", "core.tree.range", "core.tree.bulkadd", "core.tree.insert":
				default:
					t.Fatalf("%s: fabric call %d under %q", path, s.ID, names[s.Parent])
				}
			}
		}
	}
	if parented == 0 {
		t.Errorf("%s: no span has a parent", path)
	}
}

// A wrong answer — here one distance off by one bit — fails the whole
// command: the operations count as failed and the exit code is not 0.
func TestCorruptedAnswerFailsTheCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a workload")
	}
	corrupt := func(c *config) {
		c.tamper = func(r *semtree.Result) {
			if len(r.Matches) > 0 {
				last := &r.Matches[len(r.Matches)-1]
				last.Dist = math.Float64frombits(math.Float64bits(last.Dist) + 1)
			}
		}
	}
	code, res, stderr := runSmoke(t, t.TempDir(), "knn-local", "0", corrupt)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted answers: exit %d, correct %v, %d failed; want a failing run\n%s", code, res.Correct, res.Failed, stderr)
	}
}
