package core

// Benchmarks for the two cross-partition k-nearest protocols. The
// sequential protocol minimizes total work (each hop carries the
// tightest bound); the probe-then-fan-out protocol trades extra
// examined candidates for overlapped message waves, which wins once
// per-hop latency or idle cores dominate — the trade ProtocolAuto
// decides per query.

import (
	"context"
	"math/rand"
	"testing"

	"semtree/internal/kdtree"
)

func benchQueryTree(b *testing.B, m int) (*Tree, [][]float64) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	pts := make([]kdtree.Point, 20000)
	for i := range pts {
		c := make([]float64, 8)
		for d := range c {
			c[d] = r.Float64() * 100
		}
		pts[i] = kdtree.Point{Coords: c, ID: uint64(i)}
	}
	capacity := 0
	if m > 1 {
		capacity = (m - 1) * 16
	}
	tr, err := New(Config{Dim: 8, BucketSize: 16, PartitionCapacity: capacity, MaxPartitions: m})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	if err := tr.InsertAll(pts, 1); err != nil {
		b.Fatal(err)
	}
	qs := make([][]float64, 256)
	for i := range qs {
		c := make([]float64, 8)
		for d := range c {
			c[d] = r.Float64() * 100
		}
		qs[i] = c
	}
	return tr, qs
}

func BenchmarkKNNProtocols(b *testing.B) {
	tr, qs := benchQueryTree(b, 5)
	b.Run("sequential", func(b *testing.B) { benchKNN(b, tr, qs, ProtocolSequential) })
	b.Run("fanout", func(b *testing.B) { benchKNN(b, tr, qs, ProtocolFanOut) })
}

// benchKNN times k-NN (K=3) under proto over qs and reports the
// structural counters per query beside ns/op: the kernel's distance
// evaluations and nodes visited, partitions touched, fabric messages
// and probe misses.
func benchKNN(b *testing.B, tr *Tree, qs [][]float64, proto Protocol) {
	b.Helper()
	var agg ExecStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := tr.knnResolved(context.Background(), qs[i%len(qs)], 3, proto, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		agg.DistanceEvals += st.DistanceEvals
		agg.NodesVisited += st.NodesVisited
		agg.Partitions += st.Partitions
		agg.FabricMessages += st.FabricMessages
		agg.ProbeMisses += st.ProbeMisses
	}
	n := float64(b.N)
	b.ReportMetric(float64(agg.DistanceEvals)/n, "dist-evals/query")
	b.ReportMetric(float64(agg.NodesVisited)/n, "nodes/query")
	b.ReportMetric(float64(agg.Partitions)/n, "partitions/query")
	b.ReportMetric(float64(agg.FabricMessages)/n, "msgs/query")
	b.ReportMetric(float64(agg.ProbeMisses)/n, "probe-misses/query")
}

// BenchmarkKNNPlacement measures the geometry-aware placement kernel
// against the legacy round-robin scatter (roundRobin, through the
// Tree.place seam) on a clustered workload: identical results, fewer
// partitions and messages per query when placed (both reported beside
// ns/op; TestPlacementIdenticalResults is the gate).
func BenchmarkKNNPlacement(b *testing.B) {
	for _, mode := range []struct {
		name  string
		place func([]placeBox, int) []int
	}{{"placed", placeSubtrees}, {"rr", roundRobin}} {
		b.Run(mode.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(3))
			pts := clusteredPoints(r, 20000, 8, 10)
			tr, err := New(Config{Dim: 8, BucketSize: 16, PartitionCapacity: 4 * 16, MaxPartitions: 5})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { tr.Close() })
			tr.place = mode.place
			if err := tr.InsertAll(pts, 1); err != nil {
				b.Fatal(err)
			}
			// Queries live inside the clusters (perturbed data points),
			// where a clustered layout keeps the fan-out local.
			qs := make([][]float64, 256)
			for i := range qs {
				base := pts[r.Intn(len(pts))].Coords
				q := make([]float64, len(base))
				for d := range q {
					q[d] = base[d] + r.NormFloat64()
				}
				qs[i] = q
			}
			benchKNN(b, tr, qs, ProtocolFanOut)
		})
	}
}
