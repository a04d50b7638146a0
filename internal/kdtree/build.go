package kdtree

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
)

// BulkLoad builds a balanced tree over pts by recursive median splits
// ("Kd-trees are more efficient in bulk-loading situations (as required
// by our approach)" — §III-B). The points are gathered into blocks the
// tree owns (Gather, then BulkLoadRows); pts is not modified.
func BulkLoad(pts []Point, dim, bucketSize int) (*Tree, error) {
	coords, ids, err := Gather(pts, dim)
	if err != nil {
		return nil, err
	}
	return BulkLoadRows(coords, ids, dim, bucketSize)
}

// BulkLoadRows is BulkLoad over points given as rows: ids[i] is the ID
// of the point whose dim coordinates are coords[i*dim:(i+1)*dim]. The
// tree adopts both slices as its blocks, and the build moves their rows
// in place into leaf order: the caller hands them over and must not
// write them again. A row keeps its coordinates and ID together, so a
// caller that only reads the rows afterwards still reads the same
// points, in another order.
func BulkLoadRows(coords []float64, ids []uint64, dim, bucketSize int) (*Tree, error) {
	if len(coords) != dim*len(ids) {
		return nil, fmt.Errorf("kdtree: %d coordinates for %d points of dimension %d", len(coords), len(ids), dim)
	}
	return bulk(coords, ids, dim, bucketSize, func(b *rows, a *Arena) { b.build(a, 0) })
}

// bulk makes a tree that adopts the rows as its blocks, capped, and
// runs build over them at its root.
func bulk(coords []float64, ids []uint64, dim, bucketSize int, build func(b *rows, a *Arena)) (*Tree, error) {
	t, err := New(dim, bucketSize)
	if err != nil {
		return nil, err
	}
	t.Coords, t.IDs = coords[:len(coords):len(coords)], ids[:len(ids):len(ids)]
	t.reserve(len(ids))
	build(newRows(t.Coords, t.IDs, dim, t.BucketSize, false), &t.Arena)
	// Every block sized exactly: what an index holds is what it keeps.
	t.Nodes, t.Boxes = slices.Clone(t.Nodes), slices.Clone(t.Boxes)
	t.size = len(ids)
	return t, nil
}

// Gather copies pts into one coordinate block of dim floats per point
// and one ID column, in input order: the rows BulkLoadRows takes. A
// point of another dimension is refused.
func Gather(pts []Point, dim int) (coords []float64, ids []uint64, err error) {
	for i, p := range pts {
		if len(p.Coords) != dim {
			return nil, nil, fmt.Errorf("kdtree: point %d has %d coords, want %d", i, len(p.Coords), dim)
		}
	}
	coords = make([]float64, 0, len(pts)*dim)
	ids = make([]uint64, len(pts))
	for i, p := range pts {
		coords = append(coords, p.Coords...)
		ids[i] = p.ID
	}
	return coords, ids, nil
}

// BuildChain builds the paper's "totally unbalanced (chain)" tree: the
// points are sorted on the first coordinate and each routing node peels
// one leaf bucket off the left side, so the tree height is ~N/Bs. It is
// the worst-case structure of Figures 3, 4 and 6. pts is not modified.
func BuildChain(pts []Point, dim, bucketSize int) (*Tree, error) {
	coords, ids, err := Gather(pts, dim)
	if err != nil {
		return nil, err
	}
	return bulk(coords, ids, dim, bucketSize, func(b *rows, a *Arena) {
		b.sortRows(0, len(ids), b.chainOrder)
		b.buildChain(a, 0, 0, len(ids))
	})
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

// slotOrder is the stated order of a built leaf's bucket: ascending
// point ID, coordinates lexicographic on equal IDs. A total order on
// points, so a bucket is a function of the set it holds.
func (a *Arena) slotOrder(s, t int32) int {
	if c := cmp.Compare(a.IDs[s], a.IDs[t]); c != 0 {
		return c
	}
	return slices.Compare(a.coords(s), a.coords(t))
}

// setBox copies the box of node idx of src into the box of node to.
func (a *Arena) setBox(to int32, src *Arena, idx int32) {
	lo, hi := a.box(to)
	slo, shi := src.box(idx)
	copy(lo, slo)
	copy(hi, shi)
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

// rows is the working set of one balanced build: n points as rows of
// one coordinate block and one payload column, which the build moves
// together as it partitions, so every pass reads contiguous memory and
// the rows end in leaf order. Its scratch columns are carved by row
// range: a node works only in its own rows' share, so the two halves of
// a parallel build never touch the same element.
type rows struct {
	dim, bucketSize int
	coords          []float64 // dim floats per row
	// pay is a row's payload: its point ID, or in a graft its arena slot.
	pay []uint64
	// slots ends as the leaves' slots; a node uses its share as the
	// scratch of its split before its leaves are made.
	slots []int32
	keys  []float64 // a node's split coordinates, which its selection reorders
	// graft: the rows are a scratch copy of arena points, pay holds their
	// slots, and the block they index is the arena's, not coords.
	graft bool
}

func newRows(coords []float64, pay []uint64, dim, bucketSize int, graft bool) *rows {
	return &rows{dim: dim, bucketSize: bucketSize, coords: coords, pay: pay, graft: graft, slots: make([]int32, len(pay))}
}

// row returns the coordinates of row r, capped.
func (b *rows) row(r int) []float64 {
	i := r * b.dim
	return b.coords[i : i+b.dim : i+b.dim]
}

// coord returns coordinate d of row r.
func (b *rows) coord(r, d int) float64 { return b.coords[r*b.dim+d] }

// fit sets [lo, hi] to the exact box of rows [from, to).
func (b *rows) fit(lo, hi []float64, from, to int) {
	emptyBox(lo, hi)
	for r := from; r < to; r++ {
		ExpandBox(lo, hi, b.row(r))
	}
}

// parallelBuild is the subtree size from which build may give the
// right half to another goroutine: large enough that starting one and
// moving its nodes in are noise beside the half's own build, and above
// core's 2048-point bulk-merge chunks, so a graft under a partition's
// write lock never starts one.
const parallelBuild = 1 << 13

// build overwrites node idx of a with a balanced subtree over every
// row, built by recursive median splits straight into the arena: the
// subtree root takes node idx and its descendants append in preorder,
// every box exact. Each node arrives with its exact box — the root's is
// fitted here, every other one by its parent's split — and takes its
// widest dimension d from it. It copies its rows' coordinate d into
// keys, selects the median there without a branch on the data
// (selectNth), and makes one pass over its rows that fits both halves'
// exact boxes and lists the rows on the wrong side of the cut, which
// then swap, coordinates and payload together. O(n) per level,
// O(n log n) for the build, nothing allocated per node or per level.
// Leaves keep their slots as sub-slices of b.slots. Split planes, cut
// positions and boxes depend only on the multiset of coordinates and
// buckets are kept in slotOrder, so the subtree is a function of the
// point set: input order does not reach it, and neither does GOMAXPROCS
// — from parallelBuild rows up, while fewer than GOMAXPROCS builders
// run, the right half is built on a goroutine of its own, and it lands
// on the nodes a sequential build gives it.
func (b *rows) build(a *Arena, idx int32) {
	n := len(b.pay)
	b.keys = make([]float64, n)
	lo, hi := a.box(idx)
	b.fit(lo, hi, 0, n)
	var builders chan struct{} // one per builder beyond this goroutine
	if n >= parallelBuild {
		builders = make(chan struct{}, runtime.GOMAXPROCS(0)-1)
	}
	b.node(a, idx, 0, n, builders)
}

// node is build's recursion over rows [lo, hi), whose exact box node
// idx holds. A send on builders claims a builder for the right half;
// nil builders never does.
func (b *rows) node(a *Arena, idx int32, lo, hi int, builders chan struct{}) {
	d, ok := widest(a.box(idx))
	n := hi - lo
	if n <= b.bucketSize || !ok { // !ok: all points identical, an unsplittable oversized leaf
		b.leaf(a, idx, lo, hi)
		return
	}
	// A valid cut c needs every point before it smaller on dimension d
	// than every point from it on, so that "<= goes left" keeps both
	// halves non-empty with duplicates present: the candidates nearest
	// the median are the two ends of the run tied with the median value.
	// Pick the closer one; one is valid because the spread on d is > 0.
	// Either way the left half is the rows no larger than the split
	// value: the median itself, or the largest value below it.
	keys := b.keys[lo:hi]
	for i := range keys {
		keys[i] = b.coord(lo+i, d)
	}
	mid := n / 2
	selectNth(keys, mid)
	v := keys[mid]
	cutDown, cutUp := cuts(keys, v)
	cut, splitVal := cutUp, v
	if cutUp == n || (cutDown > 0 && mid-cutDown < cutUp-mid) {
		cut, splitVal = cutDown, below(keys[:mid], v)
	}
	// The left half's box goes to its node; the right half's waits in
	// idx's own box until its node exists, and idx's box becomes the
	// union of the two last.
	li := a.add(Node{})
	llo, lhi := a.box(li)
	rlo, rhi := a.box(idx)
	b.split(lo, lo+cut, hi, d, splitVal, [2][]float64{llo, rlo}, [2][]float64{lhi, rhi})
	if n < parallelBuild {
		builders = nil // a nil channel is never ready: this subtree builds on one goroutine
	}
	var ri int32
	select {
	case builders <- struct{}{}:
		// Both halves at once. The right one builds its nodes and boxes
		// in an arena of its own over its disjoint share of the rows, and
		// they move in behind the left: its root lands where a.add would
		// have put it and the rest follows in preorder, so the layout is
		// the sequential one.
		right := Arena{Coords: a.Coords, IDs: a.IDs, Self: Local, Dim: a.Dim, BucketSize: a.BucketSize}
		right.reserve(n - cut)
		right.add(Node{})
		right.setBox(0, a, idx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			b.node(&right, 0, lo+cut, hi, builders)
			<-builders
		}()
		b.node(a, li, lo, lo+cut, builders)
		<-done
		ri = a.link(-1, &right)
		a.place(-1, &right)
	default:
		b.node(a, li, lo, lo+cut, builders)
		ri = a.add(Node{})
		a.setBox(ri, a, idx)
		b.node(a, ri, lo+cut, hi, builders)
	}
	a.setRouting(idx, d, splitVal, li, ri)
}

// split moves rows [lo, hi) so that the cut-lo rows whose coordinate d
// is at most s come first, and fits the box [blo[0], bhi[0]] to them
// and [blo[1], bhi[1]] to the rest. One pass over each share of the
// rows fits every row into its half's box and lists the rows on the
// wrong side of cut in the share's part of b.slots — there are as many
// on either side — and the listed rows then swap pairwise.
func (b *rows) split(lo, cut, hi, d int, s float64, blo, bhi [2][]float64) {
	emptyBox(blo[0], bhi[0])
	emptyBox(blo[1], bhi[1])
	m := b.sweep(lo, cut, d, s, blo, bhi, 1)
	b.sweep(cut, hi, d, s, blo, bhi, 0)
	for i := range m {
		b.swap(int(b.slots[lo+i]), int(b.slots[cut+i]))
	}
}

// sweep fits each of rows [from, to) into the box of the half it goes
// to — 0 when its coordinate d is at most s, 1 otherwise — and lists
// the ones going to half away in b.slots from from, returning their
// number. The half a row goes to indexes its box and steps the list; it
// is never branched on.
func (b *rows) sweep(from, to, d int, s float64, blo, bhi [2][]float64, away int) int {
	n := from
	for r := from; r < to; r++ {
		c := b.row(r)
		side := b2i(c[d] > s)
		lo, hi := blo[side][:len(c)], bhi[side][:len(c)]
		for k, x := range c {
			if x < lo[k] {
				lo[k] = x
			}
			if x > hi[k] {
				hi[k] = x
			}
		}
		b.slots[n] = int32(r)
		n += b2i(side == away)
	}
	return n - from
}

// swap exchanges rows r and s, coordinates and payload.
func (b *rows) swap(r, s int) {
	x, y := b.row(r), b.row(s)
	y = y[:len(x)]
	for k := range x {
		x[k], y[k] = y[k], x[k]
	}
	b.pay[r], b.pay[s] = b.pay[s], b.pay[r]
}

// leaf makes node idx a leaf over rows [lo, hi), its box already
// fitted, ordering its bucket by slotOrder and keeping its slots as a
// capped share of b.slots (an insert appending to the leaf moves them
// out). A graft's rows are copies of arena points: its payloads are the
// bucket's slots, sorted in the arena. A bulk build's rows are the
// arena's points: they move into bucket order, and slot j is row j.
func (b *rows) leaf(a *Arena, idx int32, lo, hi int) {
	slots := b.slots[lo:hi:hi]
	if b.graft {
		for i := range slots {
			slots[i] = int32(b.pay[lo+i])
		}
		//semtree:allow boundaryonce: construction-time ordering of one leaf bucket by point ID, so the layout is a function of the point set; not on the query-result path
		slices.SortFunc(slots, a.slotOrder)
	} else {
		b.sortRows(lo, hi, b.rowOrder)
	}
	a.Nodes[idx] = Node{Leaf: true, Slots: slots}
}

// rowOrder is slotOrder on rows: ascending payload (the point ID),
// coordinates lexicographic on equal payloads.
func (b *rows) rowOrder(r, s int32) int {
	if c := cmp.Compare(b.pay[r], b.pay[s]); c != 0 {
		return c
	}
	return slices.Compare(b.row(int(r)), b.row(int(s)))
}

// chainOrder orders rows on their first coordinate.
func (b *rows) chainOrder(r, s int32) int { return cmp.Compare(b.coord(int(r), 0), b.coord(int(s), 0)) }

// sortRows moves rows [lo, hi) into the order of order, leaving
// b.slots[lo:hi] their row numbers, lo to hi-1. It sorts the row
// numbers there, then rotates each cycle of that permutation into place
// with swaps.
func (b *rows) sortRows(lo, hi int, order func(r, s int32) int) {
	perm := b.slots[lo:hi]
	for i := range perm {
		perm[i] = int32(lo + i)
	}
	//semtree:allow boundaryonce: construction-time ordering of rows into bucket (or chain) order; not on the query-result path
	slices.SortFunc(perm, order)
	// Row perm[k-lo] belongs at k. Swapping k with it brings it there and
	// moves row j on along the cycle, until the cycle closes on j.
	for j := lo; j < hi; j++ {
		for k := j; ; {
			next := int(perm[k-lo])
			perm[k-lo] = int32(k)
			if next == j {
				break
			}
			b.swap(k, next)
			k = next
		}
	}
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

// b2i is 1 for true and 0 for false, which the compiler lowers to a
// flag set, not a branch.
func b2i(c bool) int {
	if c {
		return 1
	}
	return 0
}

// cuts returns how many keys are smaller than v and how many are no
// larger: the two ends of the run tied with v, were keys sorted.
func cuts(keys []float64, v float64) (down, up int) {
	for _, x := range keys {
		down += b2i(x < v)
		up += b2i(x <= v)
	}
	return down, up
}

// below returns the largest key smaller than v, or −Inf when there is
// none.
func below(keys []float64, v float64) float64 {
	m := math.Inf(-1)
	for _, x := range keys {
		if x < v {
			m = max(m, x)
		}
	}
	return m
}

// sortBelow is the window length at which selectNth stops partitioning
// and sorts.
const sortBelow = 12

// selectNth reorders keys so that keys[k] holds the value of rank k,
// with no larger value before it and no smaller one after: an
// introselect, O(len(keys)) expected and O(len(keys) log len(keys)) on
// any input, in place. Its partitions compare without branching on
// the data.
func selectNth(keys []float64, k int) {
	if lo, hi, done := narrow(keys, k); !done {
		//semtree:allow boundaryonce: construction-time sort of the last few candidates for the median (or of what an adversarial input left when the depth budget ran out); not on the query-result path
		slices.Sort(keys[lo:hi])
	}
}

// narrow is selectNth's quickselect. It partitions the window [lo, hi)
// holding rank k around a median-of-three pivot and keeps the part k
// falls in, until k lands on the pivot (done), the window is at most
// sortBelow long, or 2·log2(len(keys)) rounds are spent — the depth
// limit that hands an adversarial input to the caller's sort.
// Everything before the returned window is no larger than anything in
// it, everything after it no smaller. A pivot equal to the key just
// before the window is the window's minimum: that round moves every key
// equal to it to the front at once, so ties cost one round, not one
// round each.
func narrow(keys []float64, k int) (lo, hi int, done bool) {
	hi = len(keys)
	for limit := 2 * bits.Len(uint(len(keys))); hi-lo > sortBelow && limit > 0; limit-- {
		w := keys[lo:hi]
		p := pivot(w)
		if lo > 0 && keys[lo-1] == p {
			m := partition(w, math.Nextafter(p, math.Inf(1))) // the keys no larger than p
			if k < lo+m {
				return k, k + 1, true // every key in [lo, lo+m) is p
			}
			lo += m
			continue
		}
		m := partition(w, p) - 1 // the pivot's place: the last of the smaller part
		w[0], w[m] = w[m], w[0]
		switch {
		case k < lo+m:
			hi = lo + m
		case k > lo+m:
			lo += m + 1
		default:
			return k, k + 1, true
		}
	}
	return lo, hi, false
}

// pivot moves the median of w's first, middle and last keys to w[0] and
// returns it.
func pivot(w []float64) float64 {
	m, l := len(w)/2, len(w)-1
	switch {
	case (w[0] <= w[m]) == (w[m] <= w[l]):
	case (w[m] <= w[0]) == (w[0] <= w[l]):
		m = 0
	default:
		m = l
	}
	w[0], w[m] = w[m], w[0]
	return w[0]
}

// partition is a Lomuto partition of w[1:] around p whose index step
// is a flag, not a branch: it reorders w so that the keys smaller than
// p come first, after w[0], and returns one past the last of them.
// Every key is swapped, so the loop carries no data-dependent jump.
func partition(w []float64, p float64) int {
	m := 1
	for i := 1; i < len(w); i++ {
		x := w[i]
		w[i] = w[m]
		w[m] = x
		m += b2i(x < p)
	}
	return m
}

// buildChain overwrites node idx with the chain over rows [lo, hi),
// which are sorted on dimension 0.
func (b *rows) buildChain(a *Arena, idx int32, lo, hi int) {
	// Take the first bucketSize points, extending over duplicates of the
	// boundary value so the "<= goes left" invariant holds.
	cut := min(lo+b.bucketSize, hi)
	for cut < hi && b.coord(cut, 0) == b.coord(cut-1, 0) {
		cut++
	}
	if cut == hi {
		blo, bhi := a.box(idx)
		b.fit(blo, bhi, lo, hi)
		b.leaf(a, idx, lo, hi)
		return
	}
	splitVal := b.coord(cut-1, 0) // read before leaf reorders the bucket
	li := a.add(Node{})
	llo, lhi := a.box(li)
	b.fit(llo, lhi, lo, cut)
	b.leaf(a, li, lo, cut)
	ri := a.add(Node{})
	b.buildChain(a, ri, cut, hi)
	a.setRouting(idx, 0, splitVal, li, ri)
}

// Graft merges pts into the leaf at idx, whose path boxes the caller
// has already expanded for each of them: appended while the bucket
// still fits, otherwise the leaf is replaced by a balanced subtree over
// its bucket and pts — build's, over a scratch copy of their rows whose
// payloads are their slots, appending nodes after the arena's — the
// step that removes the per-point split cascade.
func (a *Arena) Graft(idx int32, pts []Point) {
	old := a.Nodes[idx].Slots
	n := len(old) + len(pts)
	if n <= a.BucketSize {
		slots := make([]int32, len(old), n)
		copy(slots, old)
		for _, p := range pts {
			slots = append(slots, a.addPoint(p))
		}
		a.Nodes[idx].Slots = slots
		return
	}
	coords := make([]float64, 0, n*a.Dim)
	pay := make([]uint64, 0, n)
	for _, s := range old {
		coords = append(coords, a.coords(s)...)
		pay = append(pay, uint64(s))
	}
	for _, p := range pts {
		coords = append(coords, p.Coords...)
		pay = append(pay, uint64(a.addPoint(p)))
	}
	newRows(coords, pay, a.Dim, a.BucketSize, true).build(a, idx)
}
