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

// BoxMinSq returns the exact squared Euclidean distance from q to the
// axis-aligned box [lo, hi] — zero when q lies inside. It is the
// single min-distance kernel of the index, like EuclideanSq for the
// point metric.
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
	if len(pts) == 0 {
		return nil, nil
	}
	lo, hi = ExpandBox(nil, nil, pts[0].Coords)
	for _, p := range pts[1:] {
		for d, v := range p.Coords {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
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

// ExpandPath grows the box of every node on an insert descent path to
// include c (the first point materializes a box) and returns the
// number of boxes written. Expansion is idempotent, so a path that
// revisits a node is harmless. Tombstones are skipped: a path leaf can
// be relocated between the descent and the insert, and a tombstone's
// box must stay cleared.
func (a *Arena) ExpandPath(path []int32, c []float64) int {
	grown := 0
	for _, idx := range path {
		if n := &a.Nodes[idx]; !n.Moved {
			n.Lo, n.Hi = ExpandBox(n.Lo, n.Hi, c)
			grown++
		}
	}
	return grown
}

// UnionBox grows the union box [lo, hi] to cover the box [alo, ahi],
// materializing an owned copy on first use: covering a box is covering
// its two extreme corners. A nil addend (empty subtree) leaves the
// union unchanged.
func UnionBox(lo, hi, alo, ahi []float64) ([]float64, []float64) {
	if alo == nil {
		return lo, hi
	}
	lo, hi = ExpandBox(lo, hi, alo)
	return ExpandBox(lo, hi, ahi)
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
			if n.Lo == nil {
				return math.Inf(1), true
			}
			return BoxMinSq(q, n.Lo, n.Hi), true
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
// the squared splitting-plane distance otherwise, or the plane bound
// alone under Search.PlaneGuardOnly.
func (a *Arena) guardSq(s *Search, ref Ref, planeSq float64, out Outside) float64 {
	if s.PlaneGuardOnly {
		return planeSq
	}
	if minSq, ok := a.childBoxMinSq(ref, s.Query, out); ok && minSq > planeSq {
		return minSq
	}
	return planeSq
}
