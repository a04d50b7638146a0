package kdtree

import (
	"fmt"
	"math"
	"slices"
)

// Check validates the structural invariants of the tree and returns the
// first violation found.
//
// Invariants:
//  1. every node is either a routing node with two children or a leaf
//     with a bucket (never both, never neither), every child index is in
//     range, and no link leaves the arena;
//  2. every point in the left subtree of a routing node has
//     coords[splitDim] <= splitVal, every point in the right subtree
//     has coords[splitDim] > splitVal (checked transitively against
//     all ancestors);
//  3. leaf buckets respect the bucket size unless unsplittable (all
//     points equal on every dimension);
//  4. the tree size equals the number of points in the leaves;
//  5. the blocks hold Dim coordinates per point and 2·Dim box floats
//     per node, and every leaf slot indexes a point;
//  6. every node's bounding box is the exact (tight, per-dimension)
//     bound of the points in its subtree — nil for an empty subtree —
//     so the min-distance pruning guard is never looser than the data
//     and never admits a skip it cannot prove. Exactness matters in
//     both directions: a box looser than the data weakens pruning
//     silently, a box tighter than the data prunes live candidates and
//     corrupts results.
func (t *Tree) Check() error {
	counted, closed, err := t.CheckSubtree(0)
	if err != nil {
		return err
	}
	if !closed {
		return fmt.Errorf("kdtree: tree holds a link leaving its arena")
	}
	if counted != t.size {
		return fmt.Errorf("kdtree: size %d but %d points in leaves", t.size, counted)
	}
	return nil
}

// CheckSubtree validates invariants 1–3, 5 and 6 over the local subtree
// rooted at root and returns the number of points it holds. A link is
// not followed — closed reports whether none was met — and neither its
// box nor the box of a node above one is checked: its region extends
// outside the arena.
func (a *Arena) CheckSubtree(root int32) (points int, closed bool, err error) {
	if len(a.Coords) != a.Dim*len(a.IDs) || len(a.Boxes) != 2*a.Dim*len(a.Nodes) {
		return 0, false, fmt.Errorf("kdtree: blocks of %d coordinate and %d box floats for %d points and %d nodes of dimension %d",
			len(a.Coords), len(a.Boxes), len(a.IDs), len(a.Nodes), a.Dim)
	}
	// Per-dimension bounds implied by the ancestor chain.
	lo := make([]float64, a.Dim)
	hi := make([]float64, a.Dim)
	for d := range lo {
		lo[d] = math.Inf(-1)
		hi[d] = math.Inf(1)
	}
	c := checker{a: a, lo: lo, hi: hi, seen: make([]bool, len(a.Nodes))}
	_, _, closed, err = c.node(a.Ref(root))
	return c.points, closed, err
}

type checker struct {
	a      *Arena
	lo, hi []float64 // lo exclusive (right of an ancestor split), hi inclusive (left)
	seen   []bool
	points int
}

// node checks the subtree behind ref and returns its recomputed box;
// closed is false when the subtree holds a reference leaving the arena.
func (c *checker) node(ref Ref) (lo, hi []float64, closed bool, err error) {
	a := c.a
	if !a.IsLocal(ref) {
		return nil, nil, false, fmt.Errorf("kdtree: a routing child in partition %d leaves the arena", ref.Part)
	}
	if ref.Node < 0 || int(ref.Node) >= len(a.Nodes) {
		return nil, nil, false, fmt.Errorf("kdtree: dangling child index %d", ref.Node)
	}
	if c.seen[ref.Node] {
		return nil, nil, false, fmt.Errorf("kdtree: node %d has two parents or sits on a cycle", ref.Node)
	}
	c.seen[ref.Node] = true
	n := &a.Nodes[ref.Node]
	switch {
	case n.Moved:
		if n.Leaf || n.Slots != nil {
			return nil, nil, false, fmt.Errorf("kdtree: link %d carries data", ref.Node)
		}
		return nil, nil, false, nil
	case n.Leaf:
		for _, s := range n.Slots {
			if s < 0 || int(s) >= len(a.IDs) {
				return nil, nil, false, fmt.Errorf("kdtree: leaf %d: slot %d out of range", ref.Node, s)
			}
		}
		if len(n.Slots) > a.BucketSize && !a.allEqual(n.Slots) {
			return nil, nil, false, fmt.Errorf("kdtree: splittable bucket of %d exceeds Bs=%d", len(n.Slots), a.BucketSize)
		}
		for _, s := range n.Slots {
			p := a.Point(s)
			for d, v := range p.Coords {
				if !(v > c.lo[d]) || !(v <= c.hi[d]) {
					return nil, nil, false, fmt.Errorf("kdtree: point %d dim %d value %g outside (%g, %g]", p.ID, d, v, c.lo[d], c.hi[d])
				}
			}
			lo, hi = ExpandBox(lo, hi, p.Coords)
		}
		c.points += len(n.Slots)
		closed = true
	default:
		if n.Slots != nil {
			return nil, nil, false, fmt.Errorf("kdtree: malformed routing node")
		}
		d := int(n.SplitDim)
		if d < 0 || d >= a.Dim {
			return nil, nil, false, fmt.Errorf("kdtree: split dimension %d out of range", d)
		}
		if !(n.SplitVal > c.lo[d]) || !(n.SplitVal < c.hi[d]) {
			return nil, nil, false, fmt.Errorf("kdtree: split value %g outside ancestor bounds (%g, %g)",
				n.SplitVal, c.lo[d], c.hi[d])
		}
		saved := c.hi[d]
		c.hi[d] = n.SplitVal
		llo, lhi, lclosed, err := c.node(n.Left)
		c.hi[d] = saved
		if err != nil {
			return nil, nil, false, err
		}
		saved = c.lo[d]
		c.lo[d] = n.SplitVal
		rlo, rhi, rclosed, err := c.node(n.Right)
		c.lo[d] = saved
		if err != nil {
			return nil, nil, false, err
		}
		if closed = lclosed && rclosed; !closed {
			return nil, nil, false, nil
		}
		lo, hi = UnionBox(llo, lhi, rlo, rhi) // llo/lhi are fresh: safe to grow in place
	}
	blo, bhi := a.Box(ref.Node)
	if err := boxExact(blo, bhi, lo, hi); err != nil {
		return nil, nil, false, err
	}
	return lo, hi, closed, nil
}

// boxExact compares a stored box against the recomputed ground truth.
// Malformed shapes (one side nil, wrong dimensionality) are reported
// as errors too — the checker must diagnose corruption, not panic on
// it.
func boxExact(gotLo, gotHi, wantLo, wantHi []float64) error {
	if (gotLo == nil) != (wantLo == nil) || (gotHi == nil) != (wantLo == nil) {
		return fmt.Errorf("kdtree: box nil-ness lo=%v hi=%v, want %v",
			gotLo == nil, gotHi == nil, wantLo == nil)
	}
	if len(gotLo) != len(wantLo) || len(gotHi) != len(wantLo) {
		return fmt.Errorf("kdtree: box dims lo=%d hi=%d, want %d",
			len(gotLo), len(gotHi), len(wantLo))
	}
	for d := range wantLo {
		if gotLo[d] != wantLo[d] || gotHi[d] != wantHi[d] {
			return fmt.Errorf("kdtree: box dim %d [%g, %g], want exact [%g, %g]",
				d, gotLo[d], gotHi[d], wantLo[d], wantHi[d])
		}
	}
	return nil
}

func (a *Arena) allEqual(bucket []int32) bool {
	for _, s := range bucket[1:] {
		if !slices.Equal(a.coords(s), a.coords(bucket[0])) {
			return false
		}
	}
	return true
}
