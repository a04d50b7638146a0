package core

// Tests for the region-pruned cross-partition search: the bounding-box
// min-distance guard must return byte-identical results to the paper's
// splitting-plane guard under both k-NN protocols while doing strictly
// less work, and every box must stay an exact bound of its logical
// subtree across inserts, splits, spills and rebalances.

import (
	"context"
	"math/rand"
	"testing"

	"semtree/internal/kdtree"
)

// prunePair builds two trees over identical points and topology
// parameters: one pruning with the region guard (the default), one
// pinned to the paper's splitting-plane guard.
func prunePair(t *testing.T, r *rand.Rand, n, dim int) (boxTree, planeTree *Tree, pts []kdtree.Point) {
	t.Helper()
	pts = randomPoints(r, n, dim)
	mk := func(planeOnly bool) *Tree {
		tr := mustTree(t, Config{
			Dim: dim, BucketSize: 8,
			PartitionCapacity: 64, MaxPartitions: 9,
			PlaneGuardOnly: planeOnly,
		})
		if err := tr.InsertAll(pts, 1); err != nil {
			t.Fatal(err)
		}
		if got := tr.PartitionCount(); got < 4 {
			t.Fatalf("partitions = %d, want >= 4 for a meaningful fan-out", got)
		}
		return tr
	}
	return mk(false), mk(true), pts
}

// TestRegionPruneEquivalence: the region guard must return
// byte-identical results — same points, same order, same distance
// bits — as the plane guard, under both cross-partition protocols, and
// agree with the brute-force oracle. Dimensionality 8 is where the
// plane bound has visibly degraded, so divergence would show here
// first.
func TestRegionPruneEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	boxTree, planeTree, pts := prunePair(t, r, 3000, 8)
	for trial := 0; trial < 40; trial++ {
		q := randomPoints(r, 1, 8)[0].Coords
		for _, k := range []int{1, 3, 10, 40} {
			want, _, err := planeTree.knnResolved(context.Background(), q, k, ProtocolSequential, false)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]kdtree.Neighbor{
				"plane/fan-out": mustKNN(t, planeTree, q, k, ProtocolFanOut),
				"box/seq":       mustKNN(t, boxTree, q, k, ProtocolSequential),
				"box/fan-out":   mustKNN(t, boxTree, q, k, ProtocolFanOut),
			} {
				if len(got) != len(want) {
					t.Fatalf("trial %d k=%d %s: len %d != %d", trial, k, name, len(got), len(want))
				}
				for i := range want {
					if !sameNeighbor(got[i], want[i]) {
						t.Fatalf("trial %d k=%d %s item %d: (%d,%v) != (%d,%v)", trial, k, name, i,
							got[i].Point.ID, got[i].Dist, want[i].Point.ID, want[i].Dist)
					}
				}
			}
		}
	}
	q := randomPoints(r, 1, 8)[0].Coords
	got, err := boxTree.KNearest(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteKNN(pts, q, 5); !sameIDSets(got, want) {
		t.Fatalf("region-pruned kNN disagrees with oracle")
	}
}

func mustKNN(t *testing.T, tr *Tree, q []float64, k int, p Protocol) []kdtree.Neighbor {
	t.Helper()
	ns, _, err := tr.knnResolved(context.Background(), q, k, p, false)
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

// TestRegionPruneRangeEquivalence: range results under the region
// guard must match the plane guard and the brute-force oracle.
func TestRegionPruneRangeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	boxTree, planeTree, pts := prunePair(t, r, 2000, 6)
	for trial := 0; trial < 30; trial++ {
		q := randomPoints(r, 1, 6)[0].Coords
		for _, d := range []float64{0.05, 0.3, 0.8} {
			want, err := planeTree.RangeSearch(context.Background(), q, d)
			if err != nil {
				t.Fatal(err)
			}
			got, err := boxTree.RangeSearch(context.Background(), q, d)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d d=%g: len %d != %d", trial, d, len(got), len(want))
			}
			for i := range want {
				if !sameNeighbor(got[i], want[i]) {
					t.Fatalf("trial %d d=%g item %d differs", trial, d, i)
				}
			}
			if !sameIDSets(got, bruteRange(pts, q, d)) {
				t.Fatalf("trial %d d=%g: disagrees with oracle", trial, d)
			}
		}
	}
}

// TestRegionPruneReducesWork: the region guard must never send more
// messages or visit more nodes than the plane guard on any single
// query, at dimensionality 2 (where the one-dimensional plane bound
// still holds its own) and 8 (where it has degraded); at 8 it must
// also spend strictly fewer fabric messages and strictly fewer probe
// misses in total, under both protocols.
func TestRegionPruneReducesWork(t *testing.T) {
	for _, dim := range []int{2, 8} {
		r := rand.New(rand.NewSource(31))
		boxTree, planeTree, _ := prunePair(t, r, 3000, dim)
		for _, proto := range []Protocol{ProtocolSequential, ProtocolFanOut} {
			var boxAgg, planeAgg ExecStats
			r := rand.New(rand.NewSource(37)) // same queries for both trees
			for trial := 0; trial < 50; trial++ {
				q := randomPoints(r, 1, dim)[0].Coords
				_, bst, err := boxTree.knnResolved(context.Background(), q, 3, proto, false)
				if err != nil {
					t.Fatal(err)
				}
				_, pst, err := planeTree.knnResolved(context.Background(), q, 3, proto, false)
				if err != nil {
					t.Fatal(err)
				}
				if bst.FabricMessages > pst.FabricMessages {
					t.Fatalf("dim %d %v trial %d: region guard sent more messages (%d > %d)",
						dim, proto, trial, bst.FabricMessages, pst.FabricMessages)
				}
				if bst.NodesVisited > pst.NodesVisited {
					t.Fatalf("dim %d %v trial %d: region guard visited more nodes (%d > %d)",
						dim, proto, trial, bst.NodesVisited, pst.NodesVisited)
				}
				boxAgg.FabricMessages += bst.FabricMessages
				boxAgg.ProbeMisses += bst.ProbeMisses
				planeAgg.FabricMessages += pst.FabricMessages
				planeAgg.ProbeMisses += pst.ProbeMisses
			}
			t.Logf("dim %d %v: messages %d region vs %d plane, probe misses %d vs %d", dim, proto,
				boxAgg.FabricMessages, planeAgg.FabricMessages, boxAgg.ProbeMisses, planeAgg.ProbeMisses)
			if dim < 8 {
				continue
			}
			if boxAgg.FabricMessages >= planeAgg.FabricMessages {
				t.Fatalf("dim %d %v: region guard did not cut messages (%d >= %d)",
					dim, proto, boxAgg.FabricMessages, planeAgg.FabricMessages)
			}
			if boxAgg.ProbeMisses >= planeAgg.ProbeMisses {
				t.Fatalf("dim %d %v: region guard did not cut probe misses (%d >= %d)",
					dim, proto, boxAgg.ProbeMisses, planeAgg.ProbeMisses)
			}
		}
	}
}

// liveSnapshot captures the quiescent tree the structural helpers below
// read: every node, box and remote-box cache entry, refs as ordinals.
func liveSnapshot(t *testing.T, tr *Tree) *TreeSnapshot {
	t.Helper()
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// treeHeight returns the number of levels of the distributed tree,
// following cross-partition links.
func treeHeight(t *testing.T, tr *Tree) int {
	t.Helper()
	h := 0
	liveSnapshot(t, tr).walk(kdtree.Ref{}, 1, func(_ kdtree.Ref, depth int) { h = max(h, depth) })
	return h
}

// checkPartitionBoxes asserts the region invariant on every partition:
// each non-tombstone node's box is the exact per-dimension min/max of
// its logical subtree's points (nil for an empty subtree), and every
// remote-box cache entry exactly bounds the remote subtree it guards.
func checkPartitionBoxes(t *testing.T, tr *Tree) {
	t.Helper()
	snap := liveSnapshot(t, tr)
	for pi, ps := range snap.Parts {
		for ni, n := range ps.Nodes {
			lo, hi := ps.Box(int32(ni))
			if n.Moved {
				if lo != nil {
					t.Fatalf("partition %d node %d: tombstone retains a box", pi, ni)
				}
				continue
			}
			pts := snap.pointsUnder(kdtree.Ref{Part: int32(pi), Node: int32(ni)})
			assertExactBox(t, pts, lo, hi, "partition %d node %d", pi, ni)
		}
		for _, e := range ps.Remote {
			assertExactBox(t, snap.pointsUnder(e.Ref), e.Lo, e.Hi, "partition %d remote box %v", pi, e.Ref)
		}
	}
}

func assertExactBox(t *testing.T, pts []kdtree.Point, lo, hi []float64, format string, args ...any) {
	t.Helper()
	wantLo, wantHi := kdtree.BoxOf(pts)
	if (lo == nil) != (wantLo == nil) {
		t.Fatalf(format+": box nil-ness %v, want %v (%d points)",
			append(args, lo == nil, wantLo == nil, len(pts))...)
	}
	for d := range wantLo {
		if lo[d] != wantLo[d] || hi[d] != wantHi[d] {
			t.Fatalf(format+": dim %d box [%g, %g], want exact [%g, %g]",
				append(args, d, lo[d], hi[d], wantLo[d], wantHi[d])...)
		}
	}
}

// TestBoxesExactAcrossSplitsAndSpills: after concurrent inserts,
// one-at-a-time inserts and the spills they trigger, every node box and every
// cached remote box is exactly tight.
func TestBoxesExactAcrossSplitsAndSpills(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	tr := mustTree(t, Config{
		Dim: 5, BucketSize: 8,
		PartitionCapacity: 48, MaxPartitions: 7,
	})
	pts := randomPoints(r, 1200, 5)
	if err := tr.InsertAll(pts[:600], 4); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertAll(pts[600:], 1); err != nil {
		t.Fatal(err)
	}
	if got := tr.PartitionCount(); got < 3 {
		t.Fatalf("partitions = %d, want >= 3 so spills happened", got)
	}
	checkPartitionBoxes(t, tr)
}

// TestBoxesExactAfterRebalance: the coordinated bulk-load must leave
// exact boxes on the trunk, every frontier subtree, and the root's
// remote-box cache — and keep them exact through post-rebalance
// inserts.
func TestBoxesExactAfterRebalance(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	tr := mustTree(t, Config{
		Dim: 4, BucketSize: 8,
		PartitionCapacity: 64, MaxPartitions: 6,
	})
	pts := randomPoints(r, 900, 4)
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Rebalance(); err != nil {
		t.Fatal(err)
	}
	checkPartitionBoxes(t, tr)
	for _, p := range randomPoints(r, 200, 4) {
		p.ID += 10000
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	checkPartitionBoxes(t, tr)
	// The rebalanced, box-guarded tree still answers exactly.
	q := randomPoints(r, 1, 4)[0].Coords
	got, err := tr.KNearest(context.Background(), q, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("kNN after rebalance returned %d results", len(got))
	}
}

// TestProbeMissAccounting: a single-partition query issues no
// downstream calls and reports zero probe misses; multi-partition
// queries never report more misses than downstream messages.
func TestProbeMissAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	solo := mustTree(t, Config{Dim: 3, BucketSize: 8})
	for _, p := range randomPoints(r, 200, 3) {
		if err := solo.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	q := randomPoints(r, 1, 3)[0].Coords
	_, st, err := solo.KNearestStats(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.ProbeMisses != 0 {
		t.Fatalf("single partition reported %d probe misses", st.ProbeMisses)
	}
	multi, _ := multiPartitionTree(t, r, 2000, 3)
	for trial := 0; trial < 20; trial++ {
		q := randomPoints(r, 1, 3)[0].Coords
		for _, proto := range []Protocol{ProtocolSequential, ProtocolFanOut} {
			_, st, err := multi.knnResolved(context.Background(), q, 3, proto, false)
			if err != nil {
				t.Fatal(err)
			}
			if st.ProbeMisses < 0 || st.ProbeMisses >= st.FabricMessages {
				t.Fatalf("%v: misses %d out of range for %d messages",
					proto, st.ProbeMisses, st.FabricMessages)
			}
		}
	}
}
