package bench

import (
	"context"
	"fmt"

	semtree "semtree"
	"semtree/internal/fastmap"
	"semtree/internal/kdtree"
	"semtree/internal/reqcheck"
	"semtree/internal/semdist"
	"semtree/internal/synth"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// ablationK is the result-set size used by the effectiveness ablations.
const ablationK = 5

// AblationWeights sweeps Eq. 1's predicate weight β (with α = γ =
// (1−β)/2) and reports precision/recall at K=5: how far the paper's
// §IV inconsistency case study hinges on the predicate component.
func AblationWeights(ctx context.Context, p Params) (*Figure, error) {
	p = p.withDefaults()
	fig := &Figure{
		ID: "ablation-weights", Title: fmt.Sprintf("Effectiveness vs predicate weight β (K=%d)", ablationK),
		XLabel: "beta", YLabel: "precision / recall", YFmt: "%.3f",
		Notes: []string{"alpha = gamma = (1-beta)/2"},
	}
	precision := Series{Name: fmt.Sprintf("Precision@%d", ablationK)}
	recall := Series{Name: fmt.Sprintf("Recall@%d", ablationK)}
	for _, beta := range []float64{0.1, 0.2, 0.3, 0.45, 0.6, 0.8} {
		rest := (1 - beta) / 2
		idx, bundle, queries, err := effectivenessSetup(p, semtree.Options{
			Seed:    p.Seed,
			Weights: semdist.Weights{Alpha: rest, Beta: beta, Gamma: rest},
		})
		if err != nil {
			return nil, err
		}
		points, err := reqcheck.Evaluate(ctx, idx, bundle.Corpus.Store, vocab.DefaultRegistry(), queries, []int{ablationK})
		idx.Close()
		if err != nil {
			return nil, err
		}
		precision.X = append(precision.X, beta)
		precision.Y = append(precision.Y, points[0].Precision)
		recall.X = append(recall.X, beta)
		recall.Y = append(recall.Y, points[0].Recall)
	}
	fig.Series = append(fig.Series, precision, recall)
	return fig, nil
}

// AblationDims sweeps the FastMap dimensionality and reports embedding
// stress plus neighborhood recall (fraction of the exact semantic top-5
// recovered in the embedded top-10).
func AblationDims(ctx context.Context, p Params) (*Figure, error) {
	p = p.withDefaults()
	const n = 4000
	gen := synth.New(synth.Config{Seed: p.Seed}, nil)
	triples := gen.Triples(n)
	metric, err := semdist.New(vocab.DefaultRegistry(), semdist.Options{})
	if err != nil {
		return nil, err
	}
	qGen := synth.New(synth.Config{Seed: p.Seed + 1}, nil)
	queryTriples := qGen.Triples(40)

	fig := &Figure{
		ID: "ablation-dims", Title: "FastMap dimensionality",
		XLabel: "dims", YLabel: "stress / recall", YFmt: "%.3f",
		Notes: []string{fmt.Sprintf("%d triples; recall = |embedded top-10 ∩ exact top-5| / 5 over %d queries", n, len(queryTriples))},
	}
	stress := Series{Name: "embedding stress"}
	recall := Series{Name: "recall@10 of exact top-5"}
	for _, dims := range []int{2, 4, 6, 8, 12, 16} {
		mapper, coords, err := fastmap.Build(triples, metric.Distance, fastmap.Options{Dims: dims, Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		stress.X = append(stress.X, float64(dims))
		stress.Y = append(stress.Y, fastmap.Stress(triples, metric.Distance, coords, 8000, p.Seed+2))

		points := make([]kdtree.Point, n)
		for i, c := range coords {
			points[i] = kdtree.Point{Coords: c, ID: uint64(i)}
		}
		tree, err := kdtree.BulkLoad(points, dims, p.BucketSize)
		if err != nil {
			return nil, err
		}
		hits, total := 0, 0
		for _, q := range queryTriples {
			exact := exactTopIdx(triples, q, metric, 5)
			got := tree.KNearest(mapper.Map(q), 10)
			gotSet := map[uint64]bool{}
			for _, g := range got {
				gotSet[g.Point.ID] = true
			}
			for _, id := range exact {
				total++
				if gotSet[id] {
					hits++
				}
			}
		}
		recall.X = append(recall.X, float64(dims))
		recall.Y = append(recall.Y, float64(hits)/float64(total))
	}
	fig.Series = append(fig.Series, stress, recall)
	return fig, nil
}

// exactTopIdx returns the indices of the k triples closest to q under
// the exact metric (brute force).
func exactTopIdx(triples []triple.Triple, q triple.Triple, metric *semdist.Metric, k int) []uint64 {
	type cand struct {
		idx  uint64
		dist float64
	}
	best := make([]cand, 0, k+1)
	for i, t := range triples {
		d := metric.Distance(q, t)
		pos := len(best)
		for pos > 0 && (best[pos-1].dist > d || (best[pos-1].dist == d && best[pos-1].idx > uint64(i))) {
			pos--
		}
		if pos >= k {
			continue
		}
		if len(best) < k {
			best = append(best, cand{})
		}
		copy(best[pos+1:], best[pos:])
		best[pos] = cand{idx: uint64(i), dist: d}
	}
	out := make([]uint64, len(best))
	for i, c := range best {
		out[i] = c.idx
	}
	return out
}

// AblationBucket sweeps the bucket size Bs and reports virtual build
// time (M = max partitions) and sequential query cost.
func AblationBucket(ctx context.Context, p Params) (*Figure, error) {
	p = p.withDefaults()
	const n = 20000
	data, err := makeSweep(n, p.Queries, p.Dims, p.Seed)
	if err != nil {
		return nil, err
	}
	m := p.Partitions[len(p.Partitions)-1]
	fig := &Figure{
		ID: "ablation-bucket", Title: fmt.Sprintf("Bucket size Bs (%d points)", n),
		XLabel: "bucket size", YLabel: "build s / query µs", YFmt: "%.4f",
		Notes: []string{fmt.Sprintf("build on the rank clock with M=%d; queries sequential balanced", m)},
	}
	build := Series{Name: fmt.Sprintf("build virtual s (M=%d)", m)}
	query := Series{Name: "k-nearest µs (sequential)"}
	for _, bs := range []int{4, 8, 16, 32, 64, 128} {
		pb := p
		pb.BucketSize = bs
		vt, err := clockedBuild(data.prefix(n), m, pb, false)
		if err != nil {
			return nil, err
		}
		build.X = append(build.X, float64(bs))
		build.Y = append(build.Y, vt.Seconds())

		seq, err := kdtree.BulkLoad(data.prefix(n), p.Dims, bs)
		if err != nil {
			return nil, err
		}
		query.X = append(query.X, float64(bs))
		query.Y = append(query.Y, meanQueryMicros(data.queries, func(q []float64) {
			seq.KNearest(q, p.K)
		}))
	}
	fig.Series = append(fig.Series, build, query)
	return fig, nil
}

// AblationMeasure compares the six concept measures on the
// effectiveness task at K=5. X is the measure's ordinal; the mapping is
// in the notes.
func AblationMeasure(ctx context.Context, p Params) (*Figure, error) {
	p = p.withDefaults()
	names := semdist.MeasureNames()
	fig := &Figure{
		ID: "ablation-measure", Title: fmt.Sprintf("Concept measure (K=%d)", ablationK),
		XLabel: "measure#", YLabel: "precision / recall", YFmt: "%.3f",
	}
	for i, name := range names {
		fig.Notes = append(fig.Notes, fmt.Sprintf("measure %d = %s", i+1, name))
	}
	precision := Series{Name: fmt.Sprintf("Precision@%d", ablationK)}
	recall := Series{Name: fmt.Sprintf("Recall@%d", ablationK)}
	for i, name := range names {
		idx, bundle, queries, err := effectivenessSetup(p, semtree.Options{Seed: p.Seed, Measure: name})
		if err != nil {
			return nil, err
		}
		points, err := reqcheck.Evaluate(ctx, idx, bundle.Corpus.Store, vocab.DefaultRegistry(), queries, []int{ablationK})
		idx.Close()
		if err != nil {
			return nil, err
		}
		precision.X = append(precision.X, float64(i+1))
		precision.Y = append(precision.Y, points[0].Precision)
		recall.X = append(recall.X, float64(i+1))
		recall.Y = append(recall.Y, points[0].Recall)
	}
	fig.Series = append(fig.Series, precision, recall)
	return fig, nil
}
