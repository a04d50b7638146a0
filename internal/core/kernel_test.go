package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"semtree/internal/kdtree"
)

// flatScan is the kernel property test's oracle: every point within
// radius of q (all of them when radius < 0), scored with its own
// distance loop and ordered with its own comparator. It shares no code
// with the tree kernel (not EuclideanSq, not ResultSet), only the
// contract that makes answers comparable bit for bit: coordinates
// accumulate in index order, and range membership is decided on the
// squared scale (sum <= radius²), the sqrt applied once per result.
func flatScan(pts []kdtree.Point, q []float64, radius float64) []kdtree.Neighbor {
	var out []kdtree.Neighbor
	for _, p := range pts {
		sum := 0.0
		for d := range q {
			diff := q[d] - p.Coords[d]
			sum += diff * diff
		}
		if radius < 0 || sum <= radius*radius {
			out = append(out, kdtree.Neighbor{Point: p, Dist: math.Sqrt(sum)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Point.ID < out[j].Point.ID
	})
	return out
}

// sameAnswer requires identical IDs and identical distance bits, rank
// by rank.
func sameAnswer(got, want []kdtree.Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Point.ID != want[i].Point.ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Errorf("rank %d: got (%d, %x), want (%d, %x)", i,
				got[i].Point.ID, math.Float64bits(got[i].Dist), want[i].Point.ID, math.Float64bits(want[i].Dist))
		}
	}
	return nil
}

// sameWork requires the kernel's counters and the engine's to agree
// one-for-one — the mapping kdtree.Stats documents.
func sameWork(k kdtree.Stats, e ExecStats) error {
	if int64(k.NodesVisited) != e.NodesVisited || int64(k.LeavesVisited) != e.BucketsScanned || int64(k.PointsScanned) != e.DistanceEvals {
		return fmt.Errorf("kdtree.Stats %+v, ExecStats nodes=%d buckets=%d dists=%d",
			k, e.NodesVisited, e.BucketsScanned, e.DistanceEvals)
	}
	if k.NodesVisited == 0 {
		return fmt.Errorf("traversal reported no work")
	}
	return nil
}

// TestKernelProperty: the sequential tree and the one-partition
// distributed tree are the same kernel over the same arena, so for
// every way of building it they must agree with an independent flat
// scan on IDs and distance bits, and with each other on every counter.
func TestKernelProperty(t *testing.T) {
	ctx := context.Background()
	const n, bucket = 1500, 8
	for _, build := range []string{"bulk-balanced", "incremental", "chain"} {
		for _, dim := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/dim%d", build, dim), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(31 + dim)))
				pts := randomPoints(r, n, dim)
				for i := n / 2; i < n; i += 7 {
					pts[i].Coords = pts[i-n/2].Coords // exact duplicates: ties break by ID
				}
				if build == "chain" {
					// Ascending inserts under the chain policy grow the
					// paper's right-leaning worst case.
					sort.Slice(pts, func(i, j int) bool { return pts[i].Coords[0] < pts[j].Coords[0] })
				}

				ct := mustTree(t, Config{Dim: dim, BucketSize: bucket, Unbalanced: build == "chain"})
				var kt *kdtree.Tree
				var err error
				if build == "bulk-balanced" {
					if kt, err = kdtree.BulkLoad(append([]kdtree.Point(nil), pts...), dim, bucket); err != nil {
						t.Fatal(err)
					}
					if err := ct.BulkLoad(ctx, pts); err != nil {
						t.Fatal(err)
					}
				} else {
					if kt, err = kdtree.New(dim, bucket); err != nil {
						t.Fatal(err)
					}
					kt.Chain = build == "chain"
					for _, p := range pts {
						if err := kt.Insert(p); err != nil {
							t.Fatal(err)
						}
						if err := ct.Insert(p); err != nil {
							t.Fatal(err)
						}
					}
				}

				if err := kt.Check(); err != nil {
					t.Fatalf("sequential tree: %v", err)
				}
				part := ct.rootPartition()
				if count, closed, err := part.CheckSubtree(0); err != nil || !closed || count != n {
					t.Fatalf("partition arena: %d points, closed=%v, err=%v", count, closed, err)
				}
				if len(part.Nodes) != len(kt.Nodes) {
					t.Fatalf("partition arena has %d nodes, sequential tree %d", len(part.Nodes), len(kt.Nodes))
				}
				if build == "chain" && kt.Height() < n/bucket/2 {
					t.Fatalf("chain policy built height %d", kt.Height())
				}

				for qi := 0; qi < 60; qi++ {
					q := randomPoints(r, 1, dim)[0].Coords
					if qi%4 == 0 {
						q = pts[r.Intn(n)].Coords // on a data point: zero distances, duplicate ties
					}
					scan := flatScan(pts, q, -1)

					k := 1 + r.Intn(12)
					var ks kdtree.Stats
					kn := kt.KNearestWithStats(q, k, &ks)
					cn, cs, err := ct.KNearestStats(ctx, q, k)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameAnswer(kn, scan[:k]); err != nil {
						t.Fatalf("query %d: kdtree k-NN: %v", qi, err)
					}
					if err := sameAnswer(cn, scan[:k]); err != nil {
						t.Fatalf("query %d: core k-NN: %v", qi, err)
					}
					if err := sameWork(ks, cs); err != nil {
						t.Fatalf("query %d: k-NN work: %v", qi, err)
					}

					d := scan[r.Intn(40)].Dist // a radius that lands on a point, up to rounding
					within := flatScan(pts, q, d)
					ks = kdtree.Stats{}
					kr := kt.RangeSearchWithStats(q, d, &ks)
					cr, cs, err := ct.RangeSearchStats(ctx, q, d)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameAnswer(kr, within); err != nil {
						t.Fatalf("query %d: kdtree range(%g): %v", qi, d, err)
					}
					if err := sameAnswer(cr, within); err != nil {
						t.Fatalf("query %d: core range(%g): %v", qi, d, err)
					}
					if err := sameWork(ks, cs); err != nil {
						t.Fatalf("query %d: range work: %v", qi, err)
					}
				}
			})
		}
	}
}
