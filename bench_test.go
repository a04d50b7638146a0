package semtree_test

// testing.B benchmarks, one per reproduced table/figure of the paper's
// evaluation (§IV) plus the core single-operation costs. The figure
// *sweeps* (full parameter grids, the shapes of the paper's §IV) live
// in cmd/semtree-bench; these benches pin one representative
// configuration per figure so `go test -bench=.` tracks regressions in
// every experimental code path.

import (
	"context"
	"fmt"
	"testing"

	semtree "semtree"
	"semtree/internal/cluster"
	"semtree/internal/core"
	"semtree/internal/fastmap"
	"semtree/internal/kdtree"
	"semtree/internal/reqcheck"
	"semtree/internal/semdist"
	"semtree/internal/synth"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// benchPoints embeds n synthetic triples once per size (cached across
// benchmark iterations of the same b.Run).
func benchPoints(b *testing.B, n int) []kdtree.Point {
	b.Helper()
	g := synth.New(synth.Config{Seed: 1}, nil)
	triples := g.Triples(n)
	metric := semdist.MustNew(vocab.DefaultRegistry(), semdist.Options{})
	_, coords, err := fastmap.Build(triples, metric.Distance, fastmap.Options{Dims: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]kdtree.Point, n)
	for i, c := range coords {
		pts[i] = kdtree.Point{Coords: c, ID: uint64(i)}
	}
	return pts
}

// BenchmarkFig3IndexBuild measures distributed index building point by
// point (Figure 3's M=5 point at 20k triples). The reported metric is
// real work; the figure sweep reports the rank clock's virtual time.
func BenchmarkFig3IndexBuild(b *testing.B) {
	for _, m := range []int{1, 5} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			pts := benchPoints(b, 20000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fabric := cluster.NewInProc(cluster.InProcOptions{})
				capacity := 0
				if m > 1 {
					capacity = (m - 1) * 16
				}
				tr, err := core.New(core.Config{
					Dim: 8, BucketSize: 16,
					PartitionCapacity: capacity, MaxPartitions: m, Fabric: fabric,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := tr.InsertAll(append([]kdtree.Point(nil), pts...), 1); err != nil {
					b.Fatal(err)
				}
				tr.Close()
				fabric.Close()
			}
		})
	}
}

// BenchmarkFig4SeqKNN measures the sequential k-nearest query (K=3),
// balanced vs chain (Figure 4 at 20k points).
func BenchmarkFig4SeqKNN(b *testing.B) {
	pts := benchPoints(b, 20000)
	queries := benchPoints(b, 512)
	balanced, err := kdtree.BulkLoad(append([]kdtree.Point(nil), pts...), 8, 16)
	if err != nil {
		b.Fatal(err)
	}
	chain, err := kdtree.BuildChain(append([]kdtree.Point(nil), pts...), 8, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			balanced.KNearest(queries[i%len(queries)].Coords, 3)
		}
	})
	b.Run("chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chain.KNearest(queries[i%len(queries)].Coords, 3)
		}
	})
}

// BenchmarkFig5DistKNN measures the distributed k-nearest query across
// partition counts (Figure 5 at 20k points, compute only; the figure
// sweep adds the latency model).
func BenchmarkFig5DistKNN(b *testing.B) {
	for _, m := range []int{1, 5} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			pts := benchPoints(b, 20000)
			queries := benchPoints(b, 512)
			capacity := 0
			if m > 1 {
				capacity = (m - 1) * 16
			}
			tr, err := core.New(core.Config{
				Dim: 8, BucketSize: 16,
				PartitionCapacity: capacity, MaxPartitions: m,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			if err := tr.InsertAll(pts, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.KNearest(context.Background(), queries[i%len(queries)].Coords, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKNearestBatch measures the batched query surface of the
// concurrent query engine on a 5-partition tree (4 data partitions +
// root): "loop" issues the queries one synchronous KNearest at a time,
// "batch" pushes the same calls through core.RunBatch's bounded worker
// pool. On a multi-core runner the batch should sustain well
// over 1.5× the loop's throughput.
func BenchmarkKNearestBatch(b *testing.B) {
	pts := benchPoints(b, 20000)
	queries := benchPoints(b, 256)
	qs := make([][]float64, len(queries))
	for i, q := range queries {
		qs[i] = q.Coords
	}
	tr, err := core.New(core.Config{
		Dim: 8, BucketSize: 16,
		PartitionCapacity: 4 * 16, MaxPartitions: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	if err := tr.InsertAll(pts, 1); err != nil {
		b.Fatal(err)
	}
	if tr.PartitionCount() < 4 {
		b.Fatalf("partitions = %d, want >= 4", tr.PartitionCount())
	}
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := tr.KNearest(context.Background(), q, 3); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := core.RunBatch(context.Background(), len(qs), 0, func(i int) error {
				_, err := tr.KNearest(context.Background(), qs[i], 3)
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSearcherBatch measures the facade-level batched search: the
// FastMap embedding, the tree fan-out and the triple resolution all run
// under the Searcher's worker pool.
func BenchmarkSearcherBatch(b *testing.B) {
	g := synth.New(synth.Config{Seed: 1}, nil)
	store := triple.NewStore()
	for _, t := range g.Triples(10000) {
		store.Add(t, triple.Provenance{})
	}
	idx, err := semtree.Build(store, semtree.Options{
		Seed: 1, PartitionCapacity: 1000, MaxPartitions: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	qs := make([]triple.Triple, 64)
	for i := range qs {
		qs[i] = g.RandomTriple()
	}
	s := idx.Searcher(semtree.WithK(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.SearchBatch(context.Background(), qs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err) // per-query errors no longer surface batch-level
			}
		}
	}
}

// BenchmarkFig6SeqRange measures the sequential range query (Figure 6
// at 20k points, D=0.2).
func BenchmarkFig6SeqRange(b *testing.B) {
	pts := benchPoints(b, 20000)
	queries := benchPoints(b, 512)
	balanced, err := kdtree.BulkLoad(append([]kdtree.Point(nil), pts...), 8, 16)
	if err != nil {
		b.Fatal(err)
	}
	chain, err := kdtree.BuildChain(append([]kdtree.Point(nil), pts...), 8, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			balanced.RangeSearch(queries[i%len(queries)].Coords, 0.2)
		}
	})
	b.Run("chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chain.RangeSearch(queries[i%len(queries)].Coords, 0.2)
		}
	})
}

// BenchmarkFig7DistRange measures the distributed range query across
// partition counts (Figure 7 at 20k points, D=0.2).
func BenchmarkFig7DistRange(b *testing.B) {
	for _, m := range []int{1, 5} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			pts := benchPoints(b, 20000)
			queries := benchPoints(b, 512)
			capacity := 0
			if m > 1 {
				capacity = (m - 1) * 16
			}
			tr, err := core.New(core.Config{
				Dim: 8, BucketSize: 16,
				PartitionCapacity: capacity, MaxPartitions: m,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			if err := tr.InsertAll(pts, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.RangeSearch(context.Background(), queries[i%len(queries)].Coords, 0.2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Effectiveness measures one full inconsistency query
// (target construction + k-nearest + verification), the unit of the
// Figure 8 evaluation.
func BenchmarkFig8Effectiveness(b *testing.B) {
	reg := vocab.DefaultRegistry()
	gen := synth.New(synth.Config{Seed: 1, Docs: 40, InconsistencyRate: 0.3}, reg)
	bundle := gen.Corpus()
	idx, err := semtree.Build(bundle.Corpus.Store, semtree.Options{Registry: reg, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	checker := reqcheck.NewChecker(idx, reg)
	if len(bundle.Planted) == 0 {
		b.Fatal("no planted conflicts")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := bundle.Planted[i%len(bundle.Planted)]
		req := bundle.Corpus.Store.MustGet(p.Requirement)
		cands, _, err := checker.Candidates(context.Background(), req, 10)
		if err != nil {
			b.Fatal(err)
		}
		checker.Confirmed(req, cands, bundle.Corpus.Store)
	}
}

// BenchmarkTripleDistance measures one Eq. 1 evaluation from surface
// forms: six term resolutions, one Levenshtein (the subjects) and two
// concept-matrix loads. Nothing is memoized between calls.
func BenchmarkTripleDistance(b *testing.B) {
	metric := semdist.MustNew(vocab.DefaultRegistry(), semdist.Options{})
	x, _ := triple.ParseTriple("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	y, _ := triple.ParseTriple("('OBSW002', Fun:block_cmd, CmdType:shutdown)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metric.Distance(x, y)
	}
}

// internedBuild is semtree.Build up to the tree: fill a store, then
// FastMap over one-to-all rows of its dictionary encoding. It adds the
// number of one-to-all scans the build made to *scans, unless nil.
func internedBuild(metric *semdist.Metric, triples []triple.Triple, opts fastmap.Options, scans *int) (*fastmap.Mapper[semdist.Triple], []float64, error) {
	store := triple.NewStore()
	store.AddAll(triples, triple.Provenance{})
	terms, ids := store.Encoded()
	corpus := semdist.NewCorpus(metric, terms, ids)
	row := corpus.Row
	if scans != nil {
		row = func(from int) func(lo int, dst []float64) {
			*scans++
			return corpus.Row(from)
		}
	}
	return fastmap.BuildRows(corpus.Len(), row, corpus.Triple, metric.ResolvedDistance, opts)
}

// BenchmarkFastMapEmbed measures embedding one out-of-sample triple the
// way the facade does: resolve its terms, then MapInto against the
// pre-resolved pivots.
func BenchmarkFastMapEmbed(b *testing.B) {
	g := synth.New(synth.Config{Seed: 1}, nil)
	metric := semdist.MustNew(vocab.DefaultRegistry(), semdist.Options{})
	mapper, _, err := internedBuild(metric, g.Triples(5000), fastmap.Options{Dims: 8, Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	q := g.RandomTriple()
	dst := make([]float64, mapper.Dims())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapper.MapInto(dst, metric.Resolve(q))
	}
}

// BenchmarkFastMapBuild measures the FastMap build over 100k triples:
// "interned" is the path semtree.Build takes, "generic" the same kernel
// fed by one Metric.Distance call per pair (the reference the two must
// agree with bit for bit). Both split every scan over GOMAXPROCS ranges,
// so -cpu moves them. scans/op counts the one-to-all scans, each a
// Corpus.Row preparation (generic makes the same scans, n Distance
// calls each).
func BenchmarkFastMapBuild(b *testing.B) {
	triples := synth.New(synth.Config{Seed: 1}, nil).Triples(100000)
	metric := semdist.MustNew(vocab.DefaultRegistry(), semdist.Options{})
	opts := fastmap.Options{Dims: 8, Seed: 1}
	b.Run("interned", func(b *testing.B) {
		b.ReportAllocs()
		scans := 0
		for i := 0; i < b.N; i++ {
			if _, _, err := internedBuild(metric, triples, opts, &scans); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(scans)/float64(b.N), "scans/op")
	})
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := fastmap.Build(triples, metric.Distance, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexBuildEndToEnd measures the full Build pipeline
// (distance, FastMap, tree load) on one partition: at 5k triples, and
// at 100k over the knn-local corpus of the repo benchmark (synth
// Actors: 200, seed 1). The store is filled once, outside the timer.
func BenchmarkIndexBuildEndToEnd(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
		cfg  synth.Config
	}{
		{"5k", 5000, synth.Config{Seed: 1}},
		{"100k", 100000, synth.Config{Seed: 1, Actors: 200}},
	} {
		b.Run(size.name, func(b *testing.B) {
			store := triple.NewStore()
			store.AddAll(synth.New(size.cfg, nil).Triples(size.n), triple.Provenance{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := semtree.Build(store, semtree.Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				idx.Close()
			}
		})
	}
}
