package kdtree

import "math"

// visit is one pending subtree on the explicit traversal stack.
// guardSq >= 0 guards the visit: no point of the subtree can lie closer
// to the query than sqrt(guardSq), so the subtree is skipped when the
// result ball no longer reaches it. The guard is the exact squared
// minimum distance from the query to the subtree's bounding box
// (BoxMinSq), which subsumes the splitting-plane distance of §III-B.3 —
// the box lies entirely beyond the plane, so the box bound is never
// looser and grows strictly tighter with dimensionality — falling back
// to the squared plane distance when the region behind an outside
// reference is unknown. (The paper's plane-only walk is a test
// reference, planeKNN in plane_test.go.) The guard is evaluated at pop
// time — after the nearer sibling's subtree has been fully explored —
// which is exactly the paper's backtracking condition (visit the
// unexplored side when Rs.length() < K or the worst kept distance
// still reaches the region). We skip only when the
// guard is *strictly* beyond the worst kept candidate: at exact
// equality a point on the region's boundary could tie the k-th best
// with a smaller ID, and every guard (plane or box, local or
// distributed) must keep the same winner for all modes to stay
// bit-identical. guardSq < 0 marks an unconditional visit.
type visit struct {
	ref     Ref
	guardSq float64
}

// Search is the state of one traversal: the query, the work counters,
// the k-nearest candidate set and visit stack, and the range radius
// and matches. The zero value is ready once Query (and RS or Radius)
// is set; Reset re-arms a pooled one.
type Search struct {
	Query []float64
	Stats Stats
	// RS is the k-nearest candidate set Rs, squared distances. It is a
	// pointer so an Outside continuation can adopt a merged set
	// mid-traversal (the sequential cross-partition protocol).
	RS *ResultSet
	// Radius is the range traversal's D, on the (un-squared) distance
	// scale; Matches collects its hits: squared distances, traversal
	// order, unsorted.
	Radius  float64
	Matches []Neighbor

	stack []visit
	steps int
}

// Reset re-arms s for a new traversal over q, keeping its buffers.
func (s *Search) Reset(q []float64) {
	s.Query = q
	s.Stats = Stats{}
	s.Matches = nil
	s.stack = s.stack[:0]
	s.steps = 0
}

// Push schedules the subtree behind ref for a k-nearest traversal;
// entries pop in reverse push order. guardSq < 0 is unconditional.
func (s *Search) Push(ref Ref, guardSq float64) {
	s.stack = append(s.stack, visit{ref: ref, guardSq: guardSq})
}

// errCheckMask throttles Outside.Err polling on the traversal hot path:
// cancellation is re-checked every 64 visited nodes, so an expired
// query abandons a deep traversal within a bounded number of pops
// without paying an atomic load per node.
const errCheckMask = 63

// Outside is the continuation an embedder supplies for references that
// leave the arena — foreign children and tombstone forward links. A
// Tree has none and passes nil. Local children never reach it: they
// resolve by comparing Ref.Part with Arena.Self.
type Outside interface {
	// Box returns the embedder's cached bounding box of the subtree
	// behind ref; ok is false when the region is unknown.
	Box(ref Ref) (lo, hi []float64, ok bool)
	// Follow continues the traversal into the subtree behind ref. For
	// a k-nearest traversal guardSq is the guard the subtree was
	// reached with (< 0: on the query's own descent path); for a range
	// traversal parallel reports that the sibling subtree is searched
	// too, so the hop may overlap it. A non-nil error aborts.
	Follow(ref Ref, guardSq float64, parallel bool) error
	// Err is polled every 64 visited nodes; non-nil aborts the
	// traversal (cancellation, or a failed overlapped hop).
	Err() error
}

// tick counts a visited node and polls out.Err on every 64th.
func (s *Search) tick(out Outside) error {
	s.steps++
	if out != nil && s.steps&errCheckMask == 0 {
		return out.Err()
	}
	return nil
}

// scanned counts one visited leaf bucket.
func (s *Search) scanned(n *Node) {
	s.Stats.LeavesVisited++
	s.Stats.PointsScanned += len(n.Slots)
}

// EuclideanSq returns the squared Euclidean distance between q and p.
// It is the single distance kernel of the whole index, so the metric
// (and any future change to it) lives in exactly one place, like the
// ResultSet ordering contract.
func EuclideanSq(q, p []float64) float64 {
	s := 0.0
	for i := range q {
		d := q[i] - p[i]
		s += d * d
	}
	return s
}

// KNearest runs the k-nearest traversal of §III-B.3 over the subtrees
// pushed on s, offering candidates to s.RS: navigate to the leaf
// containing the query, add its bucket to Rs, then walk back up; at
// each node the unexplored subtree is visited when the hypersphere of
// the current worst result reaches the subtree's region — the exact
// min-distance form of the paper's |max(Rs) − P[SI]| > |P[SI] − Sv|
// test — or when Rs is not yet full. The recursion is run as an
// explicit stack so the whole traversal state lives in one poolable
// Search. References that leave the arena are handed to out.
func (a *Arena) KNearest(s *Search, out Outside) error {
	coords, ids, dim := a.Coords, a.IDs, a.Dim // fixed for the traversal: the caller holds the arena still
	for len(s.stack) > 0 {
		v := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if v.guardSq >= 0 && s.RS.Full() && s.RS.Worst() < v.guardSq {
			continue // backtracking prune: the result ball cannot reach the region
		}
		if err := s.tick(out); err != nil {
			return err
		}
		s.Stats.NodesVisited++
		ref := v.ref
		if a.IsLocal(ref) {
			n := &a.Nodes[ref.Node]
			if n.Leaf {
				s.scanned(n)
				rs := s.RS
				for _, slot := range n.Slots {
					i := int(slot) * dim
					c := coords[i : i+dim : i+dim]
					d := EuclideanSq(s.Query, c)
					if rs.refuses(d) {
						continue // its ID is not even read
					}
					rs.Offer(Neighbor{Point: Point{Coords: c, ID: ids[slot]}, Dist: d})
				}
				continue
			}
			if !n.Moved {
				near, far := n.Left, n.Right
				if s.Query[n.SplitDim] > n.SplitVal {
					near, far = far, near
				}
				plane := s.Query[n.SplitDim] - n.SplitVal
				// LIFO: far is guarded by its region's exact
				// min-distance and pops only after near's whole subtree
				// has been explored.
				s.Push(far, a.guardSq(s.Query, far, plane*plane, out))
				s.Push(near, -1)
				continue
			}
			ref = n.Fwd
		}
		if err := out.Follow(ref, v.guardSq, false); err != nil {
			return err
		}
	}
	return nil
}

// Range runs the range traversal of §III-B.4 from node idx, appending
// every point within s.Radius of the query to s.Matches. While descending,
// both children of a border node (the ball crosses the splitting plane,
// |P[SI] − Sv| <= D) qualify; the region guard then skips any
// qualifying child whose bounding box provably holds no match — the
// exact min-distance form of the same test (<=, not <, so points lying
// at distance exactly D are not missed). References that leave the
// arena are handed to out, in parallel below a border node.
func (a *Arena) Range(s *Search, idx int32, out Outside) error {
	if err := s.tick(out); err != nil {
		return err
	}
	s.Stats.NodesVisited++
	n := &a.Nodes[idx]
	dd := s.Radius * s.Radius
	switch {
	case n.Moved:
		return out.Follow(n.Fwd, -1, false)
	case n.Leaf:
		s.scanned(n)
		for _, slot := range n.Slots {
			c := a.coords(slot)
			if sq := EuclideanSq(s.Query, c); sq <= dd {
				s.Matches = append(s.Matches, Neighbor{Point: Point{Coords: c, ID: a.IDs[slot]}, Dist: sq})
			}
		}
		return nil
	}
	q := s.Query[n.SplitDim]
	border := math.Abs(q-n.SplitVal) <= s.Radius
	for i, c := range [2]Ref{n.Left, n.Right} {
		// The child on the query's own side of the plane always
		// qualifies on the plane bound; the other one at a border node.
		if home := (q <= n.SplitVal) == (i == 0); !home && !border {
			continue
		}
		if minSq, ok := a.childBoxMinSq(c, s.Query, out); ok && minSq > dd {
			continue
		}
		var err error
		if a.IsLocal(c) {
			err = a.Range(s, c.Node, out)
		} else {
			err = out.Follow(c, -1, border)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
