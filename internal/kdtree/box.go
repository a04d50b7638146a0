package kdtree

import "math"

// Axis-aligned bounding boxes are the region metadata behind the
// min-distance pruning guard: every subtree carries the exact box of
// its points, and a subtree is skipped when the box provably cannot
// hold a better candidate. The box bound subsumes the paper's
// splitting-plane bound (§III-B.3): the plane distance measures the gap
// along one dimension only, while BoxMinSq accumulates it over every
// dimension the query falls outside of, so the guard tightens with
// dimensionality exactly where the plane guard degrades.
//
// An arena keeps its boxes in one block, an empty subtree's as
// [+Inf, −Inf]: every kernel below then needs no case for it — growing
// one by a point makes it that point's box, covering with one changes
// nothing, and its min-distance is +Inf. Outside the block (Arena.Box,
// a remote-box cache, a placement target) an empty box is nil.

// BoxMinSq returns the exact squared Euclidean distance from q to the
// axis-aligned box [lo, hi] — zero when q lies inside, +Inf when the
// box is empty. It is the single min-distance kernel of the index, like
// EuclideanSq for the point metric.
func BoxMinSq(q, lo, hi []float64) float64 {
	s := 0.0
	for i, v := range q {
		if v < lo[i] {
			d := lo[i] - v
			s += d * d
		} else if v > hi[i] {
			d := v - hi[i]
			s += d * d
		}
	}
	return s
}

// BoxOf returns the tight bounding box of pts (nil, nil when pts is
// empty). The returned slices are freshly allocated.
func BoxOf(pts []Point) (lo, hi []float64) {
	for _, p := range pts {
		lo, hi = ExpandBox(lo, hi, p.Coords)
	}
	return lo, hi
}

// ExpandBox grows [lo, hi] to include c — in place when the box is
// already materialized, freshly allocated from c when lo is nil. It is
// the single grow-to-include kernel of the region metadata (like
// BoxMinSq): everything that maintains the exactness invariant expands
// through it, so the rule cannot silently diverge.
func ExpandBox(lo, hi, c []float64) ([]float64, []float64) {
	if lo == nil {
		return append([]float64(nil), c...), append([]float64(nil), c...)
	}
	for d, v := range c {
		if v < lo[d] {
			lo[d] = v
		}
		if v > hi[d] {
			hi[d] = v
		}
	}
	return lo, hi
}

// UnionBox grows the union box [lo, hi] to cover the box [alo, ahi],
// materializing an owned copy on first use: covering a box is covering
// its two extreme corners. An empty addend (nil, or [+Inf, −Inf])
// leaves the union unchanged.
func UnionBox(lo, hi, alo, ahi []float64) ([]float64, []float64) {
	if isEmpty(alo, ahi) {
		return lo, hi
	}
	lo, hi = ExpandBox(lo, hi, alo)
	return ExpandBox(lo, hi, ahi)
}

// isEmpty reports whether [lo, hi] holds no point.
func isEmpty(lo, hi []float64) bool { return len(lo) == 0 || lo[0] > hi[0] }

// emptyBox makes [lo, hi] the empty box.
func emptyBox(lo, hi []float64) {
	for d := range lo {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
}

// EmptyBoxes gives every node an empty box, in a block sized for Dim.
func (a *Arena) EmptyBoxes() {
	a.Boxes = make([]float64, 2*a.Dim*len(a.Nodes))
	for i := range a.Nodes {
		emptyBox(a.box(int32(i)))
	}
}

// box returns the box of node idx as writable views of the block.
func (a *Arena) box(idx int32) (lo, hi []float64) {
	i := 2 * int(idx) * a.Dim
	return a.Boxes[i : i+a.Dim : i+a.Dim], a.Boxes[i+a.Dim : i+2*a.Dim : i+2*a.Dim]
}

// Box returns the box of node idx as views of the block, which a caller
// may read (and a test may corrupt) — nil, nil for an empty subtree and
// for a tombstone.
func (a *Arena) Box(idx int32) (lo, hi []float64) {
	if lo, hi = a.box(idx); isEmpty(lo, hi) {
		return nil, nil
	}
	return lo, hi
}

// fitBox sets the box of node idx to the exact box of the points in
// slots.
func (a *Arena) fitBox(idx int32, slots []int32) {
	lo, hi := a.box(idx)
	emptyBox(lo, hi)
	for _, s := range slots {
		ExpandBox(lo, hi, a.coords(s))
	}
}

// FitBox sets the box of the leaf at idx to the exact box of its
// bucket: how a decoded snapshot gets the leaf boxes it does not store.
func (a *Arena) FitBox(idx int32) { a.fitBox(idx, a.Nodes[idx].Slots) }

// CoverBox grows the box of node idx to cover [lo, hi] (UnionBox in
// the block): how a decoded snapshot rebuilds a routing box from its
// children's, wherever they live.
func (a *Arena) CoverBox(idx int32, lo, hi []float64) {
	if !isEmpty(lo, hi) {
		nlo, nhi := a.box(idx)
		ExpandBox(nlo, nhi, lo)
		ExpandBox(nlo, nhi, hi)
	}
}

// BoxContains reports whether the box [lo, hi] covers c — false for an
// empty box, nil or [+Inf, −Inf].
func BoxContains(lo, hi, c []float64) bool {
	if len(lo) == 0 {
		return false
	}
	for d, v := range c {
		if v < lo[d] || v > hi[d] {
			return false
		}
	}
	return true
}

// ExpandPath grows the box of every node on an insert descent path to
// include c and returns the number of boxes that grew: a box already
// covering c is left unwritten. Expansion is idempotent, so a path that
// revisits a node is harmless. Tombstones are skipped: a path leaf can
// be relocated between the descent and the insert, and a tombstone's box
// must stay empty.
func (a *Arena) ExpandPath(path []int32, c []float64) int {
	grown := 0
	for _, idx := range path {
		if lo, hi := a.box(idx); !a.Nodes[idx].Moved && !BoxContains(lo, hi, c) {
			ExpandBox(lo, hi, c)
			grown++
		}
	}
	return grown
}

// childBoxMinSq returns the exact squared min distance from q to the
// subtree behind ref, and whether the region is known. Local children
// always are (an empty local subtree is +Inf: nothing there to find);
// a reference leaving the arena — a foreign child, or a tombstone's
// forward link — is as known as the embedder's cache of it, so callers
// fall back to the splitting-plane bound when it is not.
func (a *Arena) childBoxMinSq(ref Ref, q []float64, out Outside) (float64, bool) {
	if a.IsLocal(ref) {
		n := &a.Nodes[ref.Node]
		if !n.Moved {
			lo, hi := a.box(ref.Node)
			return BoxMinSq(q, lo, hi), true
		}
		ref = n.Fwd
	}
	if lo, hi, ok := out.Box(ref); ok {
		return BoxMinSq(q, lo, hi), true
	}
	return 0, false
}

// guardSq computes the k-NN backtracking guard for a child: the exact
// region min-distance when known (never looser than the plane bound),
// the squared splitting-plane distance otherwise.
func (a *Arena) guardSq(q []float64, ref Ref, planeSq float64, out Outside) float64 {
	if minSq, ok := a.childBoxMinSq(ref, q, out); ok && minSq > planeSq {
		return minSq
	}
	return planeSq
}
