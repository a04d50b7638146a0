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
// a placement target) an empty box is nil.

// BoxMinSq returns the exact squared Euclidean distance from q to the
// axis-aligned box [lo, hi] — zero when q lies inside, +Inf when the
// box is empty. It is the single min-distance kernel of the index, like
// EuclideanSq for the point metric. Each dimension's gap max(lo−v, 0) +
// max(v−hi, 0) is taken without a branch, as (x + |x|)/2 per term: at
// most one term is positive (both are +Inf for an empty box), doubling
// and halving it are exact, and an in-box dimension adds an exact zero,
// so the sum is bit for bit the one a branch per dimension would give.
func BoxMinSq(q, lo, hi []float64) float64 {
	lo, hi = lo[:len(q)], hi[:len(q)]
	s := 0.0
	for i, v := range q {
		below, above := lo[i]-v, v-hi[i]
		d := (below + math.Abs(below) + (above + math.Abs(above))) * 0.5
		s += d * d
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
// may read (and a test may corrupt) — nil, nil for an empty subtree.
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
// children's and a link's from the subtree it leads to.
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
// revisits a node is harmless. A link on the path grows like any other
// node: the point lands beneath it, on another partition.
func (a *Arena) ExpandPath(path []int32, c []float64) int {
	grown := 0
	for _, idx := range path {
		if lo, hi := a.box(idx); !BoxContains(lo, hi, c) {
			ExpandBox(lo, hi, c)
			grown++
		}
	}
	return grown
}

// childBoxMinSq returns the exact squared min distance from q to the
// box of the child at idx: +Inf for an empty subtree (nothing there to
// find), and for a link the box of the far subtree it leads to.
func (a *Arena) childBoxMinSq(idx int32, q []float64) float64 {
	lo, hi := a.box(idx)
	return BoxMinSq(q, lo, hi)
}

// guardSq computes the k-NN guard for the child at idx: its exact
// region min-distance, never looser than the plane bound. A child whose
// plane distance already lies beyond bound — the worst kept distance of
// a full Rs, +Inf otherwise — is pruned on that alone, its box unread.
func (a *Arena) guardSq(q []float64, idx int32, planeSq, bound float64) float64 {
	if planeSq > bound {
		return planeSq
	}
	if minSq := a.childBoxMinSq(idx, q); minSq > planeSq {
		return minSq
	}
	return planeSq
}
