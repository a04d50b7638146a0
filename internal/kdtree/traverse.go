package kdtree

import "math"

// visit is one pending subtree on the traversal's visit heap.
// guardSq >= 0 guards the visit: no point of the subtree can lie closer
// to the query than sqrt(guardSq), so the subtree is skipped when the
// result ball no longer reaches it. The guard is the exact squared
// minimum distance from the query to the subtree's bounding box
// (BoxMinSq), which subsumes the splitting-plane distance of §III-B.3 —
// the box lies entirely beyond the plane, so the box bound is never
// looser and grows strictly tighter with dimensionality. Every child has
// its box in the arena, a link's included, so no region is unknown.
// (The paper's plane-only walk is a test
// reference, planeKNN in plane_test.go.) We skip only when the guard
// is *strictly* beyond the worst kept candidate: at exact equality a
// point on the region's boundary could tie the k-th best with a smaller
// ID, and every guard (plane or box, local or distributed) must keep
// the same winner for all modes to stay bit-identical. guardSq < 0
// marks an unconditional visit.
type visit struct {
	ref     Ref
	guardSq float64
}

// Search is the state of one traversal: the query, the work counters,
// the k-nearest candidate set and visit heap, and the range radius
// and matches. The zero value is ready once Query (and RS or Radius)
// is set; Reset re-arms a pooled one.
type Search struct {
	Query []float64
	Stats Stats
	// RS is the k-nearest candidate set Rs, squared distances. It is a
	// pointer so an Outside continuation can add to it mid-traversal
	// (the sequential cross-partition protocol).
	RS *ResultSet
	// Radius is the range traversal's D, on the (un-squared) distance
	// scale; Matches collects its hits: squared distances, traversal
	// order, unsorted.
	Radius  float64
	Matches []Neighbor

	heap  []visit // a binary min-heap on guardSq
	steps int
}

// heapCap is the visit heap's first capacity: a k-nearest query on a
// clustered corpus rarely holds more pending subtrees, so a fresh
// Search does not grow its heap append by append.
const heapCap = 64

// Reset re-arms s for a new traversal over q, keeping its buffers.
func (s *Search) Reset(q []float64) {
	s.Query = q
	s.Stats = Stats{}
	s.Matches = nil
	if s.heap == nil {
		s.heap = make([]visit, 0, heapCap)
	}
	s.heap = s.heap[:0]
	s.steps = 0
}

// Push schedules the subtree at ref, a node of the traversed arena, for
// a k-nearest traversal, which visits pending subtrees smallest guard
// first. guardSq < 0 is unconditional; a subtree the result ball already
// cannot reach is dropped here.
func (s *Search) Push(ref Ref, guardSq float64) {
	if s.RS.Worst() < guardSq {
		return
	}
	// Sift up: the sift is written over []visit by hand, because
	// container/heap's interface boxing would allocate per push.
	h := append(s.heap, visit{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].guardSq <= guardSq {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = visit{ref: ref, guardSq: guardSq}
	s.heap = h
}

// next removes and returns the pending visit with the smallest guard;
// ok is false, and nothing is left pending, once the result ball
// cannot reach that one — it then reaches none.
func (s *Search) next() (v visit, ok bool) {
	h := s.heap
	if len(h) == 0 || s.RS.Worst() < h[0].guardSq {
		s.heap = h[:0]
		return visit{}, false
	}
	v = h[0]
	s.heap = h[:len(h)-1]
	if len(s.heap) > 0 {
		s.siftDown(h[len(h)-1])
	}
	return v, true
}

// nextBeside is next with a child the traversal just reached competing
// for the turn: the child itself while no pending visit is closer (the
// descent shortcut, no heap operation), else the closest pending visit,
// the child taking its place in the heap.
func (s *Search) nextBeside(ref Ref, guardSq float64) (visit, bool) {
	if s.RS.Worst() < guardSq {
		return s.next()
	}
	c := visit{ref: ref, guardSq: guardSq}
	if len(s.heap) == 0 || s.heap[0].guardSq >= guardSq {
		return c, true
	}
	v := s.heap[0]
	s.siftDown(c)
	return v, true
}

// siftDown puts v at the root of the heap in place of the entry there
// and sifts it down.
func (s *Search) siftDown(v visit) {
	h := s.heap
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].guardSq < h[c].guardSq {
			c++
		}
		if v.guardSq <= h[c].guardSq {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
}

// errCheckMask throttles Outside.Err polling on the traversal hot path:
// cancellation is re-checked every 64 visited nodes, so an expired
// query abandons a deep traversal within a bounded number of visits
// without paying an atomic load per node.
const errCheckMask = 63

// Outside is the continuation an embedder supplies for links, the one
// kind of node whose subtree leaves the arena. A Tree has none and
// passes nil. The guard of a link reads its box in the arena, like any
// other child's.
type Outside interface {
	// Follow continues the traversal into the subtree behind ref, a
	// link's Fwd. For a k-nearest traversal guardSq is the guard the
	// link was reached with, already checked against Rs (< 0: an
	// unconditional entry at a link); for a range traversal parallel
	// reports that the sibling subtree is searched too, so the hop may
	// overlap it. A non-nil error aborts.
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
// pushed on s, offering candidates to s.RS. A subtree is visited when
// the hypersphere of the current worst result reaches its region — the
// exact min-distance form of the paper's |max(Rs) − P[SI]| > |P[SI] −
// Sv| test — or when Rs is not yet full. The paper walks depth first:
// down to the query's leaf, then back up. This kernel visits the same
// regions nearest first ("distance browsing", Hjaltason & Samet, ACM
// TODS 1999): pending subtrees wait on a min-heap keyed on their
// guards, each child gets its own exact guard (the one on the query's
// side of the plane included), and the traversal descends straight
// into the nearer child while no pending subtree is closer. Every point
// closer than a region is then offered before that region is reached,
// so the ball has shrunk as far as it can when a region is judged and
// the same prune skips more. The result is unchanged: the prune is
// still "strictly beyond a full Rs", only the visit order differs (the
// paper's order is a test reference, dfsKNN in plane_test.go). The
// whole traversal state lives in one poolable Search. A link the
// traversal pops is counted as a visited node and handed to out.
func (a *Arena) KNearest(s *Search, out Outside) error {
	coords, ids, dim := a.Coords, a.IDs, a.Dim // fixed for the traversal: the caller holds the arena still
	for v, ok := s.next(); ok; {
		if err := s.tick(out); err != nil {
			return err
		}
		s.Stats.NodesVisited++
		switch n := &a.Nodes[v.ref.Node]; {
		case n.Leaf:
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
			v, ok = s.next()
		case n.Moved:
			if err := out.Follow(n.Fwd, v.guardSq, false); err != nil {
				return err
			}
			v, ok = s.next()
		default:
			near, far := n.Left, n.Right
			if s.Query[n.SplitDim] > n.SplitVal {
				near, far = far, near
			}
			plane := s.Query[n.SplitDim] - n.SplitVal
			worst := s.RS.Worst()
			nearSq := a.guardSq(s.Query, near.Node, 0, worst)
			farSq := a.guardSq(s.Query, far.Node, plane*plane, worst)
			if farSq < nearSq {
				near, far, nearSq, farSq = far, near, farSq, nearSq
			}
			s.Push(far, farSq)
			v, ok = s.nextBeside(near, nearSq)
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
// at distance exactly D are not missed). A link child is handed to out
// — in parallel below a border node — and, like the subtree it leads
// to, is not counted here: the partition that holds that subtree counts
// its own nodes. A traversal that starts at a link counts it and
// follows it.
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
		if a.childBoxMinSq(c.Node, s.Query) > dd {
			continue
		}
		var err error
		if cn := &a.Nodes[c.Node]; cn.Moved {
			err = out.Follow(cn.Fwd, -1, border)
		} else {
			err = a.Range(s, c.Node, out)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
