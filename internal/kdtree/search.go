package kdtree

import (
	"math"
	"slices"
	"sync"
)

// ResultSet is the paper's Rs structure (Table I): the best K
// candidates seen so far, kept sorted ascending by squared distance
// with point-ID tie-breaks. K is small in practice, so ordered
// insertion beats a heap and makes draining a straight copy. This is
// the single implementation of the result-set ordering contract —
// internal/core wraps it for the distributed protocol, so the
// tie-break rule the parallel/sequential equivalence depends on lives
// in exactly one place.
//
// Distances are accumulated *squared* for the whole traversal —
// ordering and the backtracking bound are unchanged because squaring is
// monotone — and the single sqrt per result is deferred to the client
// boundary (drain here, Tree.KNearest in core).
type ResultSet struct {
	Items []Neighbor
	K     int
}

// Full reports whether the set holds K candidates.
func (r *ResultSet) Full() bool { return len(r.Items) >= r.K }

// Worst returns the squared distance of the most distant kept candidate
// (infinite while the set is not full) — the D of Table I.
func (r *ResultSet) Worst() float64 {
	if !r.Full() {
		return math.Inf(1)
	}
	return r.Items[len(r.Items)-1].Dist
}

// NeighborLess is the total result order: ascending distance, ties
// broken by point ID for determinism.
func NeighborLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Point.ID < b.Point.ID
}

// neighborCmp is NeighborLess as a three-way comparison.
func neighborCmp(a, b Neighbor) int {
	switch {
	case NeighborLess(a, b):
		return -1
	case NeighborLess(b, a):
		return 1
	}
	return 0
}

// refuses reports whether Offer would keep nothing at squared distance
// d whatever the point: the set keeps nothing, or is full and d lies
// strictly beyond its worst (at the worst, a smaller ID still wins).
func (r *ResultSet) refuses(d float64) bool {
	return r.K <= 0 || (r.Full() && d > r.Items[len(r.Items)-1].Dist)
}

// Offer inserts a candidate in order, evicting the current worst when
// full. A set with K <= 0 keeps nothing.
func (r *ResultSet) Offer(n Neighbor) {
	if r.K <= 0 {
		return
	}
	if r.Full() {
		if !NeighborLess(n, r.Items[len(r.Items)-1]) {
			return
		}
	} else {
		r.Items = append(r.Items, Neighbor{})
	}
	i := len(r.Items) - 1
	for i > 0 && NeighborLess(n, r.Items[i-1]) {
		r.Items[i] = r.Items[i-1]
		i--
	}
	r.Items[i] = n
}

// drain copies the set — already ascending with deterministic
// tie-breaks — applying the deferred sqrt. The copy detaches the result
// from the pooled scratch buffer.
func (r *ResultSet) drain() []Neighbor {
	if len(r.Items) == 0 {
		return nil
	}
	out := append([]Neighbor(nil), r.Items...)
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	return out
}

// searchCtx is the pooled per-query execution context of Tree's
// searches, so steady-state queries allocate only the returned slice.
type searchCtx struct {
	rs ResultSet
	s  Search
}

var searchCtxPool = sync.Pool{New: func() any {
	c := new(searchCtx)
	c.s.RS = &c.rs
	return c
}}

func getSearchCtx(q []float64, k int) *searchCtx {
	c := searchCtxPool.Get().(*searchCtx)
	c.rs.K = k
	c.rs.Items = c.rs.Items[:0]
	c.s.Reset(q)
	return c
}

// release folds the traversal counters into stats (which may be nil)
// and returns the context to the pool.
func (c *searchCtx) release(stats *Stats) {
	if stats != nil {
		stats.NodesVisited += c.s.Stats.NodesVisited
		stats.LeavesVisited += c.s.Stats.LeavesVisited
		stats.PointsScanned += c.s.Stats.PointsScanned
	}
	c.s.Query, c.s.Matches = nil, nil // detach the caller's slices
	searchCtxPool.Put(c)
}

// KNearest returns the k points closest to q in ascending distance
// order (fewer when the tree holds fewer than k points).
func (t *Tree) KNearest(q []float64, k int) []Neighbor {
	return t.KNearestWithStats(q, k, nil)
}

// KNearestWithStats is KNearest recording traversal work into stats
// (which may be nil).
func (t *Tree) KNearestWithStats(q []float64, k int, stats *Stats) []Neighbor {
	if k <= 0 || t.size == 0 {
		return nil
	}
	c := getSearchCtx(q, k)
	defer c.release(stats)
	c.s.Push(t.Ref(0), -1)
	_ = t.Arena.KNearest(&c.s, nil) // no Outside: nothing can fail
	return c.rs.drain()
}

// RangeSearch returns every point within distance d of q, in ascending
// distance order.
func (t *Tree) RangeSearch(q []float64, d float64) []Neighbor {
	return t.RangeSearchWithStats(q, d, nil)
}

// RangeSearchWithStats is RangeSearch recording traversal work into
// stats (which may be nil). Results are gathered on squared distances
// and sorted plus square-rooted exactly once at the end.
func (t *Tree) RangeSearchWithStats(q []float64, d float64, stats *Stats) []Neighbor {
	if d < 0 || t.size == 0 {
		return nil
	}
	c := getSearchCtx(q, 0)
	defer c.release(stats)
	c.s.Radius = d
	_ = t.Range(&c.s, 0, nil) // no Outside: nothing can fail
	out := c.s.Matches
	slices.SortFunc(out, neighborCmp)
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	return out
}
