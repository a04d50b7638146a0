package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"semtree/internal/kdtree"
)

// TestResultSetMatchesSortOracle: offering any sequence of neighbors
// must keep exactly the k best, sorted, with deterministic tie-breaks.
func TestResultSetMatchesSortOracle(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(60)
		rs := newResultSet(k, nil)
		var all []kdtree.Neighbor
		for i := 0; i < n; i++ {
			nb := kdtree.Neighbor{
				Point: kdtree.Point{ID: uint64(r.Intn(20))},
				Dist:  float64(r.Intn(8)), // coarse values force ties
			}
			all = append(all, nb)
			rs.Offer(nb)
		}
		sort.Slice(all, func(i, j int) bool { return kdtree.NeighborLess(all[i], all[j]) })
		want := all
		if len(want) > k {
			want = want[:k]
		}
		if len(rs.Items) != len(want) {
			return false
		}
		for i := range want {
			if rs.Items[i].Dist != want[i].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResultSetSeedRespectsK(t *testing.T) {
	seed := []kdtree.Neighbor{
		{Point: kdtree.Point{ID: 1}, Dist: 3},
		{Point: kdtree.Point{ID: 2}, Dist: 1},
		{Point: kdtree.Point{ID: 3}, Dist: 2},
	}
	rs := newResultSet(2, seed)
	if len(rs.Items) != 2 || rs.Items[0].Dist != 1 || rs.Items[1].Dist != 2 {
		t.Fatalf("seeded set = %v", rs.Items)
	}
	if rs.Worst() != 2 {
		t.Fatalf("worst = %f", rs.Worst())
	}
}

func TestResultSetWorstWhenNotFull(t *testing.T) {
	rs := newResultSet(3, nil)
	if !math.IsInf(rs.Worst(), 1) {
		t.Fatalf("worst of empty set = %f, want +Inf", rs.Worst())
	}
	rs.Offer(kdtree.Neighbor{Dist: 5})
	if !math.IsInf(rs.Worst(), 1) {
		t.Fatalf("worst of non-full set must stay +Inf (Rs.length() < K)")
	}
}

func TestResultSetKZero(t *testing.T) {
	for _, k := range []int{0, -3} {
		rs := newResultSet(k, []kdtree.Neighbor{{Point: kdtree.Point{ID: 1}, Dist: 1}})
		rs.Offer(kdtree.Neighbor{Point: kdtree.Point{ID: 2}, Dist: 2})
		if len(rs.Items) != 0 {
			t.Fatalf("k=%d kept %d items", k, len(rs.Items))
		}
		if rs.finds(nil, nil) != nil {
			t.Fatalf("k=%d finds not nil", k)
		}
	}
}

// TestResultSetExactTiesBrokenByID: candidates at identical distances
// must be kept and ordered by ascending point ID, independent of offer
// order — the property that makes parallel merges deterministic.
func TestResultSetExactTiesBrokenByID(t *testing.T) {
	mk := func(id uint64) kdtree.Neighbor {
		return kdtree.Neighbor{Point: kdtree.Point{ID: id}, Dist: 7}
	}
	for _, order := range [][]uint64{{5, 1, 9, 3}, {9, 5, 3, 1}, {1, 3, 5, 9}} {
		rs := newResultSet(3, nil)
		for _, id := range order {
			rs.Offer(mk(id))
		}
		want := []uint64{1, 3, 5}
		if len(rs.Items) != 3 {
			t.Fatalf("order %v: kept %d", order, len(rs.Items))
		}
		for i, id := range want {
			if rs.Items[i].Point.ID != id {
				t.Fatalf("order %v: items[%d].ID = %d, want %d", order, i, rs.Items[i].Point.ID, id)
			}
		}
	}
}

// TestResultSetFindsThenMerge: a callee's finds are the entries of its
// final set that were not in its seed — an evicted seed entry gone, the
// kept ones left out, every coordinate dropped — and offering them to
// the caller's set rebuilds the callee's set, the merged set a
// sequential hop once adopted whole. Merging a parallel partial that
// repeats kept points after that must deduplicate by ID and still admit
// genuinely better candidates.
func TestResultSetFindsThenMerge(t *testing.T) {
	at := func(id uint64, dist float64) kdtree.Neighbor {
		return kdtree.Neighbor{Point: kdtree.Point{Coords: []float64{float64(id)}, ID: id}, Dist: dist}
	}
	caller := newResultSet(3, nil)
	caller.Offer(at(2, 4))
	caller.Offer(at(10, 5))
	caller.Offer(at(11, 7))
	callee := newResultSet(3, caller.Items)
	callee.Offer(at(1, 1)) // evicts 11
	callee.Offer(at(3, 6)) // beyond the worst: refused
	callee.Offer(at(5, 4)) // ties 2 on distance, loses on ID: evicts 10
	finds := callee.finds(nil, caller.Items)
	if len(finds) != 2 || finds[0].Point.ID != 1 || finds[1].Point.ID != 5 {
		t.Fatalf("finds = %v, want IDs [1 5]", finds)
	}
	for _, n := range finds {
		if n.Point.Coords != nil {
			t.Fatalf("find %d carries coordinates %v", n.Point.ID, n.Point.Coords)
		}
	}
	for _, n := range finds {
		caller.Offer(n)
	}
	if len(caller.Items) != len(callee.Items) {
		t.Fatalf("caller holds %v, callee %v", caller.Items, callee.Items)
	}
	for i := range callee.Items {
		if !sameNeighbor(caller.Items[i], callee.Items[i]) {
			t.Fatalf("caller holds %v, callee %v", caller.Items, callee.Items)
		}
	}
	caller.merge([]kdtree.Neighbor{
		at(2, 4), // duplicate of a kept point
		at(4, 3), // evicts ID 5
	})
	ids := make([]uint64, len(caller.Items))
	for i, n := range caller.Items {
		ids[i] = n.Point.ID
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 4 || ids[2] != 2 {
		t.Fatalf("merged ids = %v, want [1 4 2]", ids)
	}
}

// TestResultSetMergeOrderIndependent: folding partial sets in any order
// must converge on the same set (the guarantee the parallel k-NN
// fan-out's final merge relies on).
func TestResultSetMergeOrderIndependent(t *testing.T) {
	partials := [][]kdtree.Neighbor{
		{{Point: kdtree.Point{ID: 1}, Dist: 1}, {Point: kdtree.Point{ID: 2}, Dist: 3}},
		{{Point: kdtree.Point{ID: 3}, Dist: 2}, {Point: kdtree.Point{ID: 1}, Dist: 1}},
		{{Point: kdtree.Point{ID: 4}, Dist: 3}, {Point: kdtree.Point{ID: 2}, Dist: 3}},
	}
	var got [][]uint64
	for _, perm := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
		rs := newResultSet(3, nil)
		for _, pi := range perm {
			rs.merge(partials[pi])
		}
		ids := make([]uint64, len(rs.Items))
		for i, n := range rs.Items {
			ids[i] = n.Point.ID
		}
		got = append(got, ids)
	}
	for _, ids := range got[1:] {
		if len(ids) != len(got[0]) {
			t.Fatalf("merge orders disagree: %v", got)
		}
		for i := range ids {
			if ids[i] != got[0][i] {
				t.Fatalf("merge orders disagree: %v", got)
			}
		}
	}
}
