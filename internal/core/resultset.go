package core

import (
	"semtree/internal/kdtree"
)

// resultSet wraps kdtree.ResultSet — the single implementation of the
// Rs ordering contract (Table I: best k, ascending squared distance,
// point-ID tie-breaks) — with the operations the distributed protocol
// needs on top: deduplicating merges (parallel fan-outs) and the finds
// a partition sends back, copied into its reply's own buffer (a reply
// must not alias the pooled scratch buffer, nor the arena its entries
// point into). A sequential hop adopts
// nothing: the caller offers the callee's finds to its own set.
//
// While a query is in flight, Dist holds the *squared* Euclidean
// distance: the whole search — leaf scans, the backtracking bound, the
// cross-partition merges — runs on squared distances, and the single
// deferred sqrt is applied per result at the client boundary
// (Tree.KNearest / Tree.RangeSearch).
type resultSet struct {
	kdtree.ResultSet
}

func newResultSet(k int, seed []kdtree.Neighbor) *resultSet {
	rs := &resultSet{}
	rs.reset(k, seed)
	return rs
}

// reset re-arms the set for a new query, retaining the backing array so
// pooled query contexts do not allocate per search.
func (r *resultSet) reset(k int, seed []kdtree.Neighbor) {
	r.K = k
	r.Items = r.Items[:0]
	for _, n := range seed {
		r.Offer(n)
	}
}

// contains reports whether a point with the given ID is already kept.
func (r *resultSet) contains(id uint64) bool {
	for i := range r.Items {
		if r.Items[i].Point.ID == id {
			return true
		}
	}
	return false
}

// merge folds a partial result set returned by a parallel remote
// fan-out into this one. Partials hold what each callee found beyond
// the set the wave started from, so they may repeat a point another
// partial re-introduced; offers are deduplicated by point ID. The
// merged outcome is order-independent because Offer uses the total
// (Dist, ID) order.
func (r *resultSet) merge(items []kdtree.Neighbor) {
	for _, n := range items {
		if !r.contains(n.Point.ID) {
			r.Offer(n)
		}
	}
}

// finds copies into dst[:0] the kept entries that are not entries of
// seed — the set's seed, in the set's order — matched on (ID, Dist):
// what the partition found beyond what it was sent, empty when nothing.
// The copy names each point by ID alone, without its coordinates. It is
// one pass over both lists: a seed out of order, which only a hostile
// sender sends, costs no more and may see its own entries come back.
func (r *resultSet) finds(dst, seed []kdtree.Neighbor) []kdtree.Neighbor {
	out := dst[:0]
	j := 0
	for _, n := range r.Items {
		for j < len(seed) && kdtree.NeighborLess(seed[j], n) {
			j++
		}
		if j < len(seed) && seed[j].Point.ID == n.Point.ID && seed[j].Dist == n.Dist {
			j++
			continue
		}
		out = append(out, kdtree.Neighbor{Point: kdtree.Point{ID: n.Point.ID}, Dist: n.Dist})
	}
	return out
}
