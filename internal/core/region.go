package core

import "semtree/internal/kdtree"

// Region metadata for the distributed tree: every arena node carries
// the exact bounding box of its *logical* subtree — including points
// hosted by other partitions beneath cross-partition children — and
// every cross-partition edge has the remote subtree's box cached on the
// near side (partition.remoteBoxes), which the kernel's search guard
// reads through kdtree.Outside.Box. The guard admits exactly the result
// sets the paper's splitting-plane bound does (pruning is on the strict
// inequality against the k-th best): the equivalence tests pin both
// protocols to the flat scan, and kdtree's plane-bound reference walk
// pins the kernel to the paper's bound.

// box is one cached bounding box. lo is nil only transiently (entries
// are installed with real boxes); an empty box is never cached.
type box struct {
	lo, hi []float64
}

// copyBox clones a box so no two partitions alias the same backing
// arrays (each side keeps expanding its own).
func copyBox(lo, hi []float64) box {
	return box{
		lo: append([]float64(nil), lo...),
		hi: append([]float64(nil), hi...),
	}
}

// cacheRemoteBox registers the region of the cross-partition subtree
// behind ref: the box ships with the link (the adopt handshake, a trunk
// install) and is copied on the way in. Callers hold the write lock.
func (p *partition) cacheRemoteBox(ref kdtree.Ref, lo, hi []float64) {
	if p.remoteBoxes == nil {
		p.remoteBoxes = make(map[kdtree.Ref]box)
	}
	p.remoteBoxes[ref] = copyBox(lo, hi)
}

// remoteBox is the kernel's view of the cache (kdtree.Outside.Box): the
// region behind a reference that leaves the arena, unknown — possible
// only transiently — when no entry exists, so the guard falls back to
// the splitting-plane bound. Callers hold at least the read lock.
func (p *partition) remoteBox(ref kdtree.Ref) (lo, hi []float64, ok bool) {
	b, ok := p.remoteBoxes[ref]
	return b.lo, b.hi, ok
}

// expandPathBoxes grows the box of every node on an insert descent
// path to include c (kdtree.Arena.ExpandPath: idempotent, so a path
// that revisits a node — an insert resumed after a concurrent split —
// is harmless; a leaf tombstoned by a concurrent spill between the
// descent's read lock and this write lock is skipped, its region lives
// on in the edge cache), counting the boxes that grew. Callers hold the
// write lock.
func (p *partition) expandPathBoxes(path []int32, c []float64) {
	p.boxWork += int64(p.ExpandPath(path, c))
}

// forwardNeedsExpand reports, under the read lock, whether forwarding
// a point through ref still requires growing any recorded path box or
// the edge's cached box. False is the warm path — the point falls
// inside every region it routes through, so the forward can skip the
// write lock entirely instead of contending with query read locks
// that span whole traversals (including synchronous downstream hops).
func (p *partition) forwardNeedsExpand(path []int32, ref kdtree.Ref, c []float64) bool {
	for _, idx := range path {
		if lo, hi := p.Box(idx); !kdtree.BoxContains(lo, hi, c) {
			return true
		}
	}
	b, ok := p.remoteBoxes[ref]
	return ok && !kdtree.BoxContains(b.lo, b.hi, c)
}

// expandRemoteBox grows the cached box of a cross-partition edge the
// insert is about to forward through, counting it when it grew: the
// point will land beneath that remote subtree, so its region grows here
// exactly as it will there. No entry means no cached region (the guard
// falls back to the plane bound); forwarding must not invent one from a
// single point. Callers hold the write lock.
func (p *partition) expandRemoteBox(ref kdtree.Ref, c []float64) {
	if b, ok := p.remoteBoxes[ref]; ok && !kdtree.BoxContains(b.lo, b.hi, c) {
		b.lo, b.hi = kdtree.ExpandBox(b.lo, b.hi, c)
		p.remoteBoxes[ref] = b
		p.boxWork++
	}
}
