package core

import "semtree/internal/kdtree"

// Region metadata for the distributed tree: every arena node carries
// the exact bounding box of its *logical* subtree — including points
// hosted by other partitions — in the arena's box block. A
// cross-partition edge is a link, a node of the near arena
// (kdtree.Node's moved state) whose box is that of the far subtree it
// leads to, so the kernel's search guard reads it like any other
// child's, an insert grows it on its descent path like any other node,
// and it travels with its arena like any other box. The guard admits
// exactly the result sets the paper's splitting-plane bound does
// (pruning is on the strict inequality against the k-th best): the
// equivalence tests pin both protocols to the flat scan, and kdtree's
// plane-bound reference walk pins the kernel to the paper's bound.

// expandPathBoxes grows the box of every node on an insert descent
// path to include c (kdtree.Arena.ExpandPath: idempotent, so a path
// that revisits a node — an insert resumed after a concurrent split —
// is harmless), a link at its end included, counting the boxes that
// grew. Callers hold the write lock.
func (p *partition) expandPathBoxes(path []int32, c []float64) {
	p.boxWork += int64(p.ExpandPath(path, c))
}

// forwardNeedsExpand reports, under the read lock, whether forwarding
// a point along path — which ends at the link it leaves through — still
// requires growing any box on it. False is the warm path — the point
// falls inside every region it routes through, so the forward can skip
// the write lock entirely instead of contending with query read locks
// that span whole traversals (including synchronous downstream hops).
func (p *partition) forwardNeedsExpand(path []int32, c []float64) bool {
	for _, idx := range path {
		if lo, hi := p.Box(idx); !kdtree.BoxContains(lo, hi, c) {
			return true
		}
	}
	return false
}
