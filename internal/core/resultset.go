package core

import (
	"semtree/internal/kdtree"
)

// resultSet wraps kdtree.ResultSet — the single implementation of the
// Rs ordering contract (Table I: best k, ascending squared distance,
// point-ID tie-breaks) — with the operations the distributed protocol
// needs on top: wholesale replacement (sequential hops), deduplicating
// merges (parallel fan-outs) and detached export (the wire must not
// alias the pooled scratch buffer).
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

// replace swaps in a merged set returned by a remote partition during
// the sequential protocol (which was seeded with our items, so it is
// already the union's top k).
func (r *resultSet) replace(items []kdtree.Neighbor) {
	r.Items = items
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
// fan-out into this one. Partials are seeded with a snapshot of our
// items, so they may repeat points we already keep (or that another
// partial re-introduced); offers are deduplicated by point ID. The
// merged outcome is order-independent because Offer uses the total
// (Dist, ID) order.
func (r *resultSet) merge(items []kdtree.Neighbor) {
	for _, n := range items {
		if !r.contains(n.Point.ID) {
			r.Offer(n)
		}
	}
}

// export copies the set for the wire: responses must not alias the
// pooled scratch buffer, which is recycled when the query context is
// released.
func (r *resultSet) export() []kdtree.Neighbor {
	if len(r.Items) == 0 {
		return nil
	}
	return append([]kdtree.Neighbor(nil), r.Items...)
}
