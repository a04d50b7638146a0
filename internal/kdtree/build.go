package kdtree

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
)

// BulkLoad builds a balanced tree over pts by recursive median splits
// ("Kd-trees are more efficient in bulk-loading situations (as required
// by our approach)" — §III-B). The points are copied into the tree's
// blocks; pts is not modified.
func BulkLoad(pts []Point, dim, bucketSize int) (*Tree, error) {
	return bulk(pts, dim, bucketSize, func(a *Arena, slots []int32) { a.build(0, slots) })
}

// BuildChain builds the paper's "totally unbalanced (chain)" tree: the
// points are sorted on the first coordinate and each routing node peels
// one leaf bucket off the left side, so the tree height is ~N/Bs. It is
// the worst-case structure of Figures 3, 4 and 6. pts is not modified.
func BuildChain(pts []Point, dim, bucketSize int) (*Tree, error) {
	return bulk(pts, dim, bucketSize, func(a *Arena, slots []int32) {
		//semtree:allow boundaryonce: construction-time sort for the degenerate-chain builder; not on the query-result path
		slices.SortFunc(slots, func(s, t int32) int { return cmp.Compare(a.coord(s, 0), a.coord(t, 0)) })
		a.buildChain(0, slots)
	})
}

// bulk copies pts into a new tree's blocks, runs build over their
// slots at the root, and lays the blocks out in leaf order.
func bulk(pts []Point, dim, bucketSize int, build func(a *Arena, slots []int32)) (*Tree, error) {
	t, err := New(dim, bucketSize)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		if len(p.Coords) != dim {
			return nil, fmt.Errorf("kdtree: point %d has %d coords, want %d", i, len(p.Coords), dim)
		}
	}
	t.Coords = make([]float64, 0, len(pts)*dim)
	t.IDs = make([]uint64, 0, len(pts))
	slots := make([]int32, len(pts))
	for i, p := range pts {
		slots[i] = t.addPoint(p)
	}
	t.reserve(len(pts))
	build(&t.Arena, slots)
	t.permute(slots)
	// Every block sized exactly: what an index holds is what it keeps.
	t.Nodes, t.Boxes = slices.Clone(t.Nodes), slices.Clone(t.Boxes)
	t.size = len(pts)
	return t, nil
}

// reserve grows the node list and box block for a balanced build over
// n points, which makes at most about 4n/Bs nodes — leaves of more than
// Bs/2 points each, unless ties cut some smaller — so the build appends
// without growing them again.
func (a *Arena) reserve(n int) {
	nodes := 4*n/a.BucketSize + 1
	a.Nodes = slices.Grow(a.Nodes, nodes)
	a.Boxes = slices.Grow(a.Boxes, 2*a.Dim*nodes)
}

// permute lays the blocks out in the order of slots — a permutation of
// every slot the blocks hold — moving point slots[j] to slot j, and
// leaves slots the identity, so a built arena's leaves index its blocks
// in leaf order. It follows each cycle of the permutation with one
// point held aside: in place, allocating one point's coordinates.
func (a *Arena) permute(slots []int32) {
	held := make([]float64, a.Dim)
	for j := range slots {
		if int(slots[j]) == j {
			continue
		}
		copy(held, a.coords(int32(j)))
		id := a.IDs[j]
		for k := int32(j); ; {
			from := slots[k]
			slots[k] = k
			if int(from) == j {
				copy(a.coords(k), held)
				a.IDs[k] = id
				break
			}
			copy(a.coords(k), a.coords(from))
			a.IDs[k] = a.IDs[from]
			k = from
		}
	}
}

// slotOrder is the stated order of a built leaf's bucket: ascending
// point ID, coordinates lexicographic on equal IDs. A total order on
// points, so a bucket is a function of the set it holds.
func (a *Arena) slotOrder(s, t int32) int {
	if c := cmp.Compare(a.IDs[s], a.IDs[t]); c != 0 {
		return c
	}
	return slices.Compare(a.coords(s), a.coords(t))
}

// setLeaf makes node idx a leaf over slots, which it sorts into bucket
// order and keeps (capped, so an insert appending to the leaf moves it
// out of the caller's array). The caller has fitted the box.
func (a *Arena) setLeaf(idx int32, slots []int32) {
	//semtree:allow boundaryonce: construction-time ordering of one leaf bucket by point ID, so the layout is a function of the point set; not on the query-result path
	slices.SortFunc(slots, a.slotOrder)
	a.Nodes[idx] = Node{Leaf: true, Slots: slots[:len(slots):len(slots)]}
}

// setRouting makes node idx a routing node over the two freshly built
// local children, its box the union of theirs.
func (a *Arena) setRouting(idx int32, dim int, splitVal float64, li, ri int32) {
	a.Nodes[idx] = Node{SplitDim: int32(dim), SplitVal: splitVal, Left: a.Ref(li), Right: a.Ref(ri)}
	emptyBox(a.box(idx))
	for _, c := range [2]int32{li, ri} {
		lo, hi := a.box(c)
		a.CoverBox(idx, lo, hi)
	}
}

// parallelBuild is the subtree size from which build may give the
// right half to another goroutine: large enough that starting one and
// moving its nodes in are noise beside the half's own build, and above
// core's 2048-point bulk-merge chunks, so a graft under a partition's
// write lock never starts one.
const parallelBuild = 1 << 13

// build overwrites node idx with a balanced subtree over the points in
// slots, built by recursive median splits straight into the arena: the
// subtree root takes slot idx and its descendants append in preorder,
// every box exact. Each level is one extent pass (the node's box, and
// from it the widest dimension) and one selection of the median on that
// dimension over the slots — O(n) per level, O(n log n) for the build,
// nothing allocated but the arena's growth. Leaves keep their slots as
// sub-slices of slots. Split planes, cut positions and boxes depend
// only on the multiset of coordinates and buckets are kept in
// slotOrder, so the subtree is a function of the point set: input order
// does not reach it, and neither does GOMAXPROCS — from parallelBuild
// points up, while fewer than GOMAXPROCS builders run, the right half
// is built on a goroutine of its own, and it lands on the nodes a
// sequential build gives it.
func (a *Arena) build(idx int32, slots []int32) {
	var builders chan struct{} // one per builder beyond this goroutine
	if len(slots) >= parallelBuild {
		builders = make(chan struct{}, runtime.GOMAXPROCS(0)-1)
	}
	a.buildNode(idx, slots, builders)
}

// buildNode is build's recursion. A send on builders claims a builder
// for the right half; nil builders never does.
func (a *Arena) buildNode(idx int32, slots []int32, builders chan struct{}) {
	a.fitBox(idx, slots)
	d, ok := widest(a.box(idx))
	if len(slots) <= a.BucketSize || !ok { // !ok: all points identical, an unsplittable oversized leaf
		a.setLeaf(idx, slots)
		return
	}
	// A valid cut c needs every point before it smaller on dimension d
	// than every point from it on, so that "<= goes left" keeps both
	// halves non-empty with duplicates present: the candidates nearest
	// the median are the two ends of the run tied with the median value.
	// Pick the closer one; one is valid because the spread on d is > 0.
	mid := len(slots) / 2
	cutDown, cutUp := a.selectNth(slots, d, mid)
	cut := cutUp
	if cutUp == len(slots) || (cutDown > 0 && mid-cutDown < cutUp-mid) {
		cut = cutDown
	}
	splitVal := a.coord(slots[cut-1], d) // cut == cutUp: the median value itself
	if cut == cutDown {
		for _, s := range slots[:cut-1] {
			splitVal = max(splitVal, a.coord(s, d))
		}
	}
	if len(slots) < parallelBuild {
		builders = nil // a nil channel is never ready: this subtree builds on one goroutine
	}
	li := a.add(Node{})
	var ri int32
	select {
	case builders <- struct{}{}:
		// Both halves at once. The right one builds its nodes and boxes
		// in an arena of its own over the same point blocks, which both
		// only read, and its disjoint share of slots; they move in behind
		// the left: its root lands where a.add would have put it and the
		// rest follows in preorder, so the layout is the sequential one.
		right := Arena{Coords: a.Coords, IDs: a.IDs, Self: Local, Dim: a.Dim, BucketSize: a.BucketSize}
		right.reserve(len(slots) - cut)
		right.add(Node{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			right.buildNode(0, slots[cut:], builders)
			<-builders
		}()
		a.buildNode(li, slots[:cut], builders)
		<-done
		ri = a.link(-1, &right)
		a.place(-1, &right)
	default:
		a.buildNode(li, slots[:cut], builders)
		ri = a.add(Node{})
		a.buildNode(ri, slots[cut:], builders)
	}
	a.Nodes[idx] = Node{SplitDim: int32(d), SplitVal: splitVal, Left: a.Ref(li), Right: a.Ref(ri)}
}

// widest returns the dimension on which the box [lo, hi] has the
// largest spread (the lowest such dimension on ties). ok is false when
// the box is a single point or empty.
func widest(lo, hi []float64) (dim int, ok bool) {
	best := 0.0
	for d := range lo {
		if spread := hi[d] - lo[d]; spread > best {
			best, dim, ok = spread, d, true
		}
	}
	return dim, ok
}

// sortBelow is the window length at which selectNth stops partitioning
// and sorts.
const sortBelow = 12

// selectNth reorders slots into three parts on dimension d — smaller
// than v, equal to v, larger than v, where v is the value of rank k —
// and returns the bounds of the middle one: an introselect, O(len(slots))
// expected and O(len(slots) log len(slots)) on any input, in place.
func (a *Arena) selectNth(slots []int32, d, k int) (start, end int) {
	lo, hi, tied := a.narrow(slots, d, k)
	if tied {
		return lo, hi
	}
	//semtree:allow boundaryonce: construction-time sort of the last few candidates for the median (or of what an adversarial input left when the depth budget ran out); not on the query-result path
	slices.SortFunc(slots[lo:hi], func(s, t int32) int { return cmp.Compare(a.coord(s, d), a.coord(t, d)) })
	v := a.coord(slots[k], d)
	for start = k; start > lo && a.coord(slots[start-1], d) == v; start-- {
	}
	for end = k + 1; end < hi && a.coord(slots[end], d) == v; end++ {
	}
	return start, end
}

// narrow is selectNth's quickselect: it partitions the window [lo, hi)
// holding rank k three ways around a median-of-three pivot, keeping
// the part k falls in, until that part is the pivot's own run (tied:
// every value in it equal), the window is at most sortBelow long, or
// 2·log2(len(slots)) rounds are spent — the depth limit that hands an
// adversarial input to the caller's sort. Everything before the
// returned window is smaller on dimension d than everything in it,
// everything after it larger.
func (a *Arena) narrow(slots []int32, d, k int) (lo, hi int, tied bool) {
	hi = len(slots)
	for limit := 2 * bits.Len(uint(len(slots))); hi-lo > sortBelow && limit > 0; limit-- {
		w := slots[lo:hi]
		lt, gt := a.partition3(w, d, medianOfThree(a.coord(w[0], d), a.coord(w[len(w)/2], d), a.coord(w[len(w)-1], d)))
		switch {
		case k < lo+lt:
			hi = lo + lt
		case k >= lo+gt:
			lo += gt
		default:
			return lo + lt, lo + gt, true
		}
	}
	return lo, hi, false
}

func medianOfThree(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	return max(a, min(b, c))
}

// partition3 reorders slots into [smaller than v | equal to v | larger
// than v] on dimension d and returns the bounds of the middle part.
func (a *Arena) partition3(slots []int32, d int, v float64) (lt, gt int) {
	gt = len(slots)
	for i := 0; i < gt; {
		switch x := a.coord(slots[i], d); {
		case x < v:
			if i != lt {
				slots[i], slots[lt] = slots[lt], slots[i]
			}
			lt++
			i++
		case x > v:
			// Swap with the last slot that is not already in place.
			for gt--; gt > i && a.coord(slots[gt], d) > v; gt-- {
			}
			slots[i], slots[gt] = slots[gt], slots[i]
		default:
			i++
		}
	}
	return lt, gt
}

// buildChain overwrites node idx with the chain over slots, which are
// sorted on dimension 0.
func (a *Arena) buildChain(idx int32, slots []int32) {
	// Take the first bucketSize points, extending over duplicates of the
	// boundary value so the "<= goes left" invariant holds.
	cut := a.BucketSize
	for cut < len(slots) && a.coord(slots[cut], 0) == a.coord(slots[cut-1], 0) {
		cut++
	}
	cut = min(cut, len(slots))
	if cut == len(slots) {
		a.fitBox(idx, slots)
		a.setLeaf(idx, slots)
		return
	}
	splitVal := a.coord(slots[cut-1], 0) // read before setLeaf reorders the bucket
	li := a.add(Node{})
	a.fitBox(li, slots[:cut])
	a.setLeaf(li, slots[:cut])
	ri := a.add(Node{})
	a.buildChain(ri, slots[cut:])
	a.setRouting(idx, 0, splitVal, li, ri)
}

// Graft merges pts into the leaf at idx, whose path boxes the caller
// has already expanded for each of them: appended while the bucket
// still fits, otherwise the leaf is replaced by a balanced subtree over
// its bucket and pts (build's, appending nodes after the arena's) — the
// step that removes the per-point split cascade.
func (a *Arena) Graft(idx int32, pts []Point) {
	old := a.Nodes[idx].Slots
	slots := make([]int32, len(old), len(old)+len(pts))
	copy(slots, old)
	for _, p := range pts {
		slots = append(slots, a.addPoint(p))
	}
	if len(slots) <= a.BucketSize {
		a.Nodes[idx].Slots = slots
		return
	}
	a.build(idx, slots)
}
