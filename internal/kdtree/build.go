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
// by our approach)" — §III-B). The input slice is reordered in place.
func BulkLoad(pts []Point, dim, bucketSize int) (*Tree, error) {
	return bulk(pts, dim, bucketSize, (*Arena).Build)
}

// BuildChain builds the paper's "totally unbalanced (chain)" tree: the
// points are sorted on the first coordinate and each routing node peels
// one leaf bucket off the left side, so the tree height is ~N/Bs. It is
// the worst-case structure of Figures 3, 4 and 6. The input slice is
// reordered in place.
func BuildChain(pts []Point, dim, bucketSize int) (*Tree, error) {
	return bulk(pts, dim, bucketSize, func(a *Arena, idx int32, pts []Point) {
		//semtree:allow boundaryonce: construction-time sort for the degenerate-chain builder; not on the query-result path
		slices.SortFunc(pts, func(p, q Point) int { return cmp.Compare(p.Coords[0], q.Coords[0]) })
		a.buildChain(idx, pts)
	})
}

func bulk(pts []Point, dim, bucketSize int, build func(a *Arena, idx int32, pts []Point)) (*Tree, error) {
	t, err := New(dim, bucketSize)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		if len(p.Coords) != dim {
			return nil, fmt.Errorf("kdtree: point %d has %d coords, want %d", i, len(p.Coords), dim)
		}
	}
	build(&t.Arena, 0, pts)
	t.size = len(pts)
	return t, nil
}

// bucketOrder is the stated order of a built leaf's bucket: ascending
// point ID, coordinates lexicographic on equal IDs. A total order on
// points, so a bucket is a function of the set it holds.
func bucketOrder(p, q Point) int {
	if c := cmp.Compare(p.ID, q.ID); c != 0 {
		return c
	}
	return slices.Compare(p.Coords, q.Coords)
}

// setLeaf makes node idx a leaf owning a copy of pts in bucket order;
// [lo, hi] is their exact box, which the leaf keeps.
func (a *Arena) setLeaf(idx int32, pts []Point, lo, hi []float64) {
	//semtree:allow boundaryonce: construction-time ordering of one leaf bucket by point ID, so the layout is a function of the point set; not on the query-result path
	slices.SortFunc(pts, bucketOrder)
	a.Nodes[idx] = Node{Leaf: true, Bucket: append([]Point(nil), pts...), Lo: lo, Hi: hi}
}

// setRouting makes node idx a routing node over the two freshly built
// local children, its box the union of theirs.
func (a *Arena) setRouting(idx int32, dim int, splitVal float64, li, ri int32) {
	l, r := &a.Nodes[li], &a.Nodes[ri]
	n := &a.Nodes[idx]
	*n = Node{SplitDim: int32(dim), SplitVal: splitVal, Left: a.Ref(li), Right: a.Ref(ri)}
	n.Lo, n.Hi = UnionBox(nil, nil, l.Lo, l.Hi)
	n.Lo, n.Hi = UnionBox(n.Lo, n.Hi, r.Lo, r.Hi)
}

// parallelBuild is the subtree size from which Build may give the
// right half to another goroutine: large enough that starting one and
// moving its fragment in are noise beside the half's own build, and
// above core's 2048-point bulk-merge chunks, so a graft under a
// partition's write lock never starts one.
const parallelBuild = 1 << 13

// Build overwrites node idx with a balanced subtree over pts, built by
// recursive median splits straight into the arena: the subtree root
// takes slot idx and its descendants append in preorder, every box
// exact. Each level is one extent pass (the node's box, and from it
// the widest dimension) and one selection of the median on that
// dimension — O(n) per level, O(n log n) for the build, nothing
// allocated but the nodes' buckets and boxes. Split planes, cut
// positions and boxes depend only on the multiset of coordinates and
// buckets are kept in bucketOrder, so the subtree is a function of the
// point set: input order does not reach it, and neither does
// GOMAXPROCS — from parallelBuild points up, while fewer than
// GOMAXPROCS builders run, the right half is built on a goroutine of
// its own, and it lands on the slots a sequential build gives it.
// pts is reordered in place; leaf buckets are copies, so the caller
// keeps its slice.
func (a *Arena) Build(idx int32, pts []Point) {
	var slots chan struct{} // one per builder beyond this goroutine
	if len(pts) >= parallelBuild {
		slots = make(chan struct{}, runtime.GOMAXPROCS(0)-1)
	}
	a.build(idx, pts, slots)
}

// build is Build's recursion. A send on slots claims a builder for the
// right half; nil slots never does.
func (a *Arena) build(idx int32, pts []Point, slots chan struct{}) {
	lo, hi := BoxOf(pts)
	d, ok := widest(lo, hi)
	if len(pts) <= a.BucketSize || !ok { // !ok: all points identical, an unsplittable oversized leaf
		a.setLeaf(idx, pts, lo, hi)
		return
	}
	// A valid cut c needs every point before it smaller on dimension d
	// than every point from it on, so that "<= goes left" keeps both
	// halves non-empty with duplicates present: the candidates nearest
	// the median are the two ends of the run tied with the median value.
	// Pick the closer one; one is valid because the spread on d is > 0.
	mid := len(pts) / 2
	cutDown, cutUp := selectNth(pts, d, mid)
	cut := cutUp
	if cutUp == len(pts) || (cutDown > 0 && mid-cutDown < cutUp-mid) {
		cut = cutDown
	}
	splitVal := pts[cut-1].Coords[d] // cut == cutUp: the median value itself
	if cut == cutDown {
		for _, p := range pts[:cut-1] {
			splitVal = max(splitVal, p.Coords[d])
		}
	}
	if len(pts) < parallelBuild {
		slots = nil // a nil channel is never ready: this subtree builds on one goroutine
	}
	li := a.add(Node{})
	var ri int32
	select {
	case slots <- struct{}{}:
		// Both halves at once. The right one builds in an arena of its
		// own and moves in behind the left: its root lands where
		// a.add would have put it and the rest follows in preorder, so
		// the layout is the sequential one.
		right := Arena{Nodes: []Node{{}}, Self: Local, Dim: a.Dim, BucketSize: a.BucketSize}
		done := make(chan struct{})
		go func() {
			defer close(done)
			right.build(0, pts[cut:], slots)
			<-slots
		}()
		a.build(li, pts[:cut], slots)
		<-done
		var err error
		if ri, err = a.Install(-1, right.Nodes); err != nil {
			panic(err) // a fragment build just wrote is well-formed
		}
	default:
		a.build(li, pts[:cut], slots)
		ri = a.add(Node{})
		a.build(ri, pts[cut:], slots)
	}
	a.Nodes[idx] = Node{SplitDim: int32(d), SplitVal: splitVal, Left: a.Ref(li), Right: a.Ref(ri), Lo: lo, Hi: hi}
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

// selectNth reorders pts into three parts on dimension d — smaller
// than v, equal to v, larger than v, where v is the value of rank k —
// and returns the bounds of the middle one: an introselect, O(len(pts))
// expected and O(len(pts) log len(pts)) on any input, in place.
func selectNth(pts []Point, d, k int) (start, end int) {
	lo, hi, tied := narrow(pts, d, k)
	if tied {
		return lo, hi
	}
	//semtree:allow boundaryonce: construction-time sort of the last few candidates for the median (or of what an adversarial input left when the depth budget ran out); not on the query-result path
	slices.SortFunc(pts[lo:hi], func(p, q Point) int { return cmp.Compare(p.Coords[d], q.Coords[d]) })
	v := pts[k].Coords[d]
	for start = k; start > lo && pts[start-1].Coords[d] == v; start-- {
	}
	for end = k + 1; end < hi && pts[end].Coords[d] == v; end++ {
	}
	return start, end
}

// narrow is selectNth's quickselect: it partitions the window [lo, hi)
// holding rank k three ways around a median-of-three pivot, keeping
// the part k falls in, until that part is the pivot's own run (tied:
// every value in it equal), the window is at most sortBelow long, or
// 2·log2(len(pts)) rounds are spent — the depth limit that hands an
// adversarial input to the caller's sort. Everything before the
// returned window is smaller on dimension d than everything in it,
// everything after it larger.
func narrow(pts []Point, d, k int) (lo, hi int, tied bool) {
	hi = len(pts)
	for limit := 2 * bits.Len(uint(len(pts))); hi-lo > sortBelow && limit > 0; limit-- {
		w := pts[lo:hi]
		lt, gt := partition3(w, d, medianOfThree(w[0].Coords[d], w[len(w)/2].Coords[d], w[len(w)-1].Coords[d]))
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

// partition3 reorders pts into [smaller than v | equal to v | larger
// than v] on dimension d and returns the bounds of the middle part.
func partition3(pts []Point, d int, v float64) (lt, gt int) {
	gt = len(pts)
	for i := 0; i < gt; {
		switch x := pts[i].Coords[d]; {
		case x < v:
			if i != lt {
				pts[i], pts[lt] = pts[lt], pts[i]
			}
			lt++
			i++
		case x > v:
			// Swap with the last point that is not already in place.
			for gt--; gt > i && pts[gt].Coords[d] > v; gt-- {
			}
			pts[i], pts[gt] = pts[gt], pts[i]
		default:
			i++
		}
	}
	return lt, gt
}

// buildChain overwrites node idx with the chain over pts, which are
// sorted on dimension 0.
func (a *Arena) buildChain(idx int32, pts []Point) {
	// Take the first bucketSize points, extending over duplicates of the
	// boundary value so the "<= goes left" invariant holds.
	cut := a.BucketSize
	for cut < len(pts) && pts[cut].Coords[0] == pts[cut-1].Coords[0] {
		cut++
	}
	cut = min(cut, len(pts))
	lo, hi := BoxOf(pts[:cut])
	if cut == len(pts) {
		a.setLeaf(idx, pts, lo, hi)
		return
	}
	splitVal := pts[cut-1].Coords[0] // read before setLeaf reorders the bucket
	li := a.add(Node{})
	a.setLeaf(li, pts[:cut], lo, hi)
	ri := a.add(Node{})
	a.buildChain(ri, pts[cut:])
	a.setRouting(idx, 0, splitVal, li, ri)
}

// Extract copies the local subtree rooted at root into a self-contained
// fragment in preorder (root first): an arena slice whose local refs
// carry Part == Local and index the fragment itself. Children listed in
// cut are not descended; their references are replaced by the given
// outside ones — how a trunk is separated from the frontier subtrees
// that ship to other arenas. Buckets and boxes are shared with the
// source, which the caller gives up (Install moves them).
func (a *Arena) Extract(root int32, cut map[int32]Ref) []Node {
	var out []Node
	var walk func(ref Ref) Ref
	walk = func(ref Ref) Ref {
		if !a.IsLocal(ref) {
			return ref
		}
		if to, ok := cut[ref.Node]; ok {
			return to
		}
		at := int32(len(out))
		out = append(out, a.Nodes[ref.Node])
		if n := out[at]; !n.Leaf && !n.Moved {
			l, r := walk(n.Left), walk(n.Right)
			out[at].Left, out[at].Right = l, r
		}
		return Ref{Part: Local, Node: at}
	}
	walk(a.Ref(root))
	return out
}

// Install moves a fragment (see Extract; a Tree's Nodes are one too)
// into the arena and returns the index its root landed on: slot entry
// when entry >= 0 — the fragment replaces that node — or a fresh slot
// otherwise; the other nodes append in order. Fragment-local refs are
// rebased onto the arena; no bucket or box is copied. A fragment whose
// local refs do not index it (or name its own root) is rejected with
// the arena untouched.
func (a *Arena) Install(entry int32, frag []Node) (int32, error) {
	if len(frag) == 0 {
		return 0, fmt.Errorf("kdtree: empty fragment")
	}
	// frag[j] lands on base+j, except the root when it takes slot entry.
	base := int32(len(a.Nodes))
	root := base
	if entry >= 0 {
		base--
		root = entry
	}
	for j := range frag {
		n := &frag[j]
		if n.Leaf || n.Moved {
			continue
		}
		for _, c := range [2]*Ref{&n.Left, &n.Right} {
			if c.Part != Local {
				continue
			}
			if c.Node <= 0 || int(c.Node) >= len(frag) {
				return 0, fmt.Errorf("kdtree: fragment child %d out of range", c.Node)
			}
			*c = a.Ref(base + c.Node)
		}
	}
	if entry >= 0 {
		a.Nodes[entry] = frag[0]
		frag = frag[1:]
	}
	a.Nodes = append(a.Nodes, frag...)
	return root, nil
}
