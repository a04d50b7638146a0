package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"semtree"
	"semtree/internal/fastmap"
	"semtree/internal/semdist"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// checkedQueries is how many of the generated queries every run
// compares against the flat scan (every sampleStride-th query).
const checkedQueries = 256

// oracle answers queries by a flat scan the benchmark does itself, over
// coordinates from its own fastmap.Build. The index under test runs the
// same deterministic FastMap with the same seed, so its embedding is
// the same and its answers must equal the scan's bit for bit.
type oracle struct {
	corpus []triple.Triple
	metric *semdist.Metric
	mapper *fastmap.Mapper[triple.Triple]
	coords [][]float64
	// distCalls counts the mapper's calls into the metric (build and
	// every Map since); every distSampleEvery-th call is timed into
	// distSampledNs.
	distCalls     atomic.Int64
	distSampledNs atomic.Int64
}

// distSampleEvery is how many metric calls share one timed call: the
// clock is read too rarely to slow the embedding down.
const distSampleEvery = 32

// meanDistNs is the mean time of the metric calls timed so far.
func (o *oracle) meanDistNs() float64 {
	return float64(o.distSampledNs.Load()) / float64(o.distCalls.Load()/distSampleEvery)
}

// buildOracle embeds corpus the way semtree.Build does under the zero
// Options: default registry, weights and measure, 8 dimensions.
func buildOracle(corpus []triple.Triple, seed int64) (*oracle, error) {
	metric, err := semdist.New(vocab.DefaultRegistry(), semdist.Options{})
	if err != nil {
		return nil, err
	}
	o := &oracle{corpus: corpus, metric: metric}
	dist := func(a, b triple.Triple) float64 {
		if o.distCalls.Add(1)%distSampleEvery != 0 {
			return metric.Distance(a, b)
		}
		t0 := time.Now()
		d := metric.Distance(a, b)
		o.distSampledNs.Add(int64(time.Since(t0)))
		return d
	}
	if o.mapper, o.coords, err = fastmap.Build(corpus, dist, fastmap.Options{Seed: seed}); err != nil {
		return nil, err
	}
	return o, nil
}

// hit is one scanned point: its squared distance to the query and ID.
type hit struct {
	sq float64
	id uint64
}

func hitLess(a, b hit) bool {
	if a.sq != b.sq {
		return a.sq < b.sq
	}
	return a.id < b.id
}

// scan returns every stored point with its squared distance to q, the
// sum taken in coordinate order as the index's kernel takes it.
func (o *oracle) scan(q []float64) []hit {
	hits := make([]hit, len(o.coords))
	for id, c := range o.coords {
		s := 0.0
		for i := range q {
			d := q[i] - c[i]
			s += d * d
		}
		hits[id] = hit{sq: s, id: uint64(id)}
	}
	return hits
}

// knn is the k nearest points of q, ascending by (distance, ID).
func (o *oracle) knn(q triple.Triple, k int) []hit {
	best := make([]hit, 0, k+1)
	for _, h := range o.scan(o.mapper.Map(q)) {
		if len(best) == k && !hitLess(h, best[k-1]) {
			continue
		}
		at := sort.Search(len(best), func(i int) bool { return hitLess(h, best[i]) })
		best = append(best, hit{})
		copy(best[at+1:], best[at:])
		best[at] = h
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// within is every point within distance d of q, ascending, cut to the
// first limit when limit > 0.
func (o *oracle) within(q triple.Triple, d float64, limit int) []hit {
	var in []hit
	for _, h := range o.scan(o.mapper.Map(q)) {
		if h.sq <= d*d {
			in = append(in, h)
		}
	}
	sort.Slice(in, func(i, j int) bool { return hitLess(in[i], in[j]) })
	if limit > 0 && len(in) > limit {
		in = in[:limit]
	}
	return in
}

// verify compares one answer with the scan's: same IDs in the same
// order, the same distance bits, and each ID resolved to the triple the
// corpus holds under it.
func (o *oracle) verify(res semtree.Result, want []hit) error {
	if res.Err != nil {
		return res.Err
	}
	if len(res.Matches) != len(want) {
		return fmt.Errorf("%d matches, flat scan has %d", len(res.Matches), len(want))
	}
	for i, m := range res.Matches {
		w := want[i]
		if uint64(m.ID) != w.id {
			return fmt.Errorf("match %d: ID %d, flat scan has %d", i, m.ID, w.id)
		}
		if math.Float64bits(m.Dist) != math.Float64bits(math.Sqrt(w.sq)) {
			return fmt.Errorf("match %d (ID %d): distance %v, flat scan has %v", i, m.ID, m.Dist, math.Sqrt(w.sq))
		}
		if !m.Triple.Equal(o.corpus[w.id]) {
			return fmt.Errorf("match %d: ID %d resolved to %v, corpus holds %v", i, m.ID, m.Triple, o.corpus[w.id])
		}
	}
	return nil
}

// sameAnswer compares two answers to one query for identity: IDs,
// distance bits, triples and provenance.
func sameAnswer(a, b semtree.Result) error {
	if a.Err != nil {
		return a.Err
	}
	if b.Err != nil {
		return b.Err
	}
	if len(a.Matches) != len(b.Matches) {
		return fmt.Errorf("%d matches against %d", len(a.Matches), len(b.Matches))
	}
	for i := range a.Matches {
		x, y := a.Matches[i], b.Matches[i]
		if x.ID != y.ID || math.Float64bits(x.Dist) != math.Float64bits(y.Dist) ||
			!x.Triple.Equal(y.Triple) || x.Prov != y.Prov {
			return fmt.Errorf("match %d differs: %+v against %+v", i, x, y)
		}
	}
	return nil
}

// checkTally counts comparisons; each one is an attempted operation of
// the run and a mismatch a failed one.
type checkTally struct {
	attempted int
	failed    int
	first     error // first mismatch, for the report
}

func (c *checkTally) note(what string, q int, err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if c.first == nil {
		c.first = fmt.Errorf("%s, query %d: %w", what, q, err)
	}
}

// sampled are the indices of the checked queries.
func sampled(queries []triple.Triple) []int {
	stride := len(queries) / checkedQueries
	if stride < 1 {
		stride = 1
	}
	var out []int
	for i := 0; i < len(queries) && len(out) < checkedQueries; i += stride {
		out = append(out, i)
	}
	return out
}

// againstScan checks t's k-NN and range answers for the sampled queries
// against the oracle. rangeLimit is the truncation the target applies
// to a range answer (0: none).
func (c *checkTally) againstScan(ctx context.Context, o *oracle, t target, queries []triple.Triple, rangeLimit int) {
	for _, qi := range sampled(queries) {
		q := queries[qi]
		res, _ := t.knn(ctx, q)
		c.note("k-NN against flat scan", qi, o.verify(res, o.knn(q, knnK)))
		res, _ = t.within(ctx, q)
		c.note("range against flat scan", qi, o.verify(res, o.within(q, rangeRadius, rangeLimit)))
	}
}

// againstTarget checks that two targets answer the sampled queries
// identically.
func (c *checkTally) againstTarget(ctx context.Context, what string, a, b target, queries []triple.Triple) {
	for _, qi := range sampled(queries) {
		ra, _ := a.knn(ctx, queries[qi])
		rb, _ := b.knn(ctx, queries[qi])
		c.note(what+" (k-NN)", qi, sameAnswer(ra, rb))
		ra, _ = a.within(ctx, queries[qi])
		rb, _ = b.within(ctx, queries[qi])
		c.note(what+" (range)", qi, sameAnswer(ra, rb))
	}
}
