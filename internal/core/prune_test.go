package core

// Tests for the region-pruned cross-partition search: the bounding-box
// min-distance guard must return byte-identical results to the flat
// scan under both k-NN protocols while doing less work than the paper's
// splitting-plane guard, and every box must stay an exact bound of its
// logical subtree across inserts, splits, spills and rebalances.

import (
	"context"
	"math/rand"
	"testing"

	"semtree/internal/kdtree"
)

// pruneTree builds an insert-grown tree over n random points spread
// across at least four partitions.
func pruneTree(t *testing.T, r *rand.Rand, n, dim int) (*Tree, []kdtree.Point) {
	t.Helper()
	pts := randomPoints(r, n, dim)
	tr := mustTree(t, Config{
		Dim: dim, BucketSize: 8,
		PartitionCapacity: 64, MaxPartitions: 9,
	})
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	if got := tr.PartitionCount(); got < 4 {
		t.Fatalf("partitions = %d, want >= 4 for a meaningful fan-out", got)
	}
	return tr, pts
}

// TestRegionPruneEquivalence: under both cross-partition protocols the
// region-guarded k-NN returns what the brute-force oracle does — same
// points, same order, same distance bits. Dimensionality 8 is where the
// plane bound has visibly degraded and the box guard prunes most, so a
// guard that cut a winner would show here first.
func TestRegionPruneEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	tr, pts := pruneTree(t, r, 3000, 8)
	for trial := 0; trial < 40; trial++ {
		q := randomPoints(r, 1, 8)[0].Coords
		for _, k := range []int{1, 3, 10, 40} {
			want := bruteKNN(pts, q, k)
			for _, p := range []Protocol{ProtocolSequential, ProtocolFanOut} {
				if err := sameAnswer(mustKNN(t, tr, q, k, p), want); err != nil {
					t.Fatalf("trial %d k=%d %v: %v", trial, k, p, err)
				}
			}
		}
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
// guard are the flat scan's, in order and to the distance bit.
func TestRegionPruneRangeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	tr, pts := pruneTree(t, r, 2000, 6)
	for trial := 0; trial < 30; trial++ {
		q := randomPoints(r, 1, 6)[0].Coords
		for _, d := range []float64{0.05, 0.3, 0.8} {
			got, err := tr.RangeSearch(context.Background(), q, d)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameAnswer(got, flatScan(pts, q, d)); err != nil {
				t.Fatalf("trial %d d=%g: %v", trial, d, err)
			}
		}
	}
}

// TestRegionPruneReducesWork pins the fabric work of 50 K=3 queries on
// a nine-partition tree, per dimensionality and protocol: messages and
// probe misses, both deterministic counters, asserted exactly. Beside
// them stand the same counters under the paper's splitting-plane guard,
// recorded with a plane-bound traversal of the same trees and queries:
// the region guard must stay at or below them, and strictly below at
// dimensionality 8, where the one-dimensional bound has degraded. kdtree's TestRegionGuardAgainstPlaneReference holds the
// kernel itself to a plane-bound walk.
func TestRegionPruneReducesWork(t *testing.T) {
	type work struct{ msgs, misses int64 }
	for _, c := range []struct {
		dim           int
		proto         Protocol
		region, plane work
	}{
		{2, ProtocolSequential, work{110, 6}, work{110, 6}},
		{2, ProtocolFanOut, work{266, 3}, work{388, 125}},
		{8, ProtocolSequential, work{421, 258}, work{472, 309}},
		{8, ProtocolFanOut, work{383, 128}, work{427, 172}},
	} {
		tr, _ := pruneTree(t, rand.New(rand.NewSource(31)), 3000, c.dim)
		var got work
		r := rand.New(rand.NewSource(37))
		for trial := 0; trial < 50; trial++ {
			q := randomPoints(r, 1, c.dim)[0].Coords
			_, st, err := tr.knnResolved(context.Background(), q, 3, c.proto, false)
			if err != nil {
				t.Fatal(err)
			}
			got.msgs += st.FabricMessages
			got.misses += st.ProbeMisses
		}
		t.Logf("dim %d %v: messages %d region vs %d plane, probe misses %d vs %d", c.dim, c.proto,
			got.msgs, c.plane.msgs, got.misses, c.plane.misses)
		if got != c.region {
			t.Fatalf("dim %d %v: messages/probe misses %d/%d, want %d/%d", c.dim, c.proto,
				got.msgs, got.misses, c.region.msgs, c.region.misses)
		}
		if got.msgs > c.plane.msgs || got.misses > c.plane.misses {
			t.Fatalf("dim %d %v: region guard above the plane guard's %d/%d", c.dim, c.proto, c.plane.msgs, c.plane.misses)
		}
		if c.dim == 8 && (got.msgs >= c.plane.msgs || got.misses >= c.plane.misses) {
			t.Fatalf("dim %d %v: region guard not strictly below the plane guard's %d/%d", c.dim, c.proto, c.plane.msgs, c.plane.misses)
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
// its logical subtree's points (nil for an empty subtree), every
// remote-box cache entry exactly bounds the remote subtree it guards,
// and every routing child that leaves its partition has an entry — the
// box a partition message's receiver rebuilds the parent's from.
func checkPartitionBoxes(t *testing.T, tr *Tree) {
	t.Helper()
	snap := liveSnapshot(t, tr)
	for pi, ps := range snap.Parts {
		cached := make(map[kdtree.Ref]bool, len(ps.Remote))
		for _, e := range ps.Remote {
			cached[e.Ref] = true
		}
		for ni, n := range ps.Nodes {
			lo, hi := ps.Box(int32(ni))
			if n.Moved {
				if lo != nil {
					t.Fatalf("partition %d node %d: tombstone retains a box", pi, ni)
				}
				continue
			}
			for _, c := range [2]kdtree.Ref{n.Left, n.Right} {
				if !n.Leaf && !ps.IsLocal(c) && !cached[c] {
					t.Fatalf("partition %d node %d: child %v leaves the partition with no remote box", pi, ni, c)
				}
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
