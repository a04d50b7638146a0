// Package kdtree implements the bucket KD-tree SemTree is built from
// (§III-B): data points live only in leaf buckets; routing nodes carry
// a split index Sr and split value Sv; navigation compares P[Sr]
// against Sv at each level.
//
// The package is the single tree kernel of the index. An Arena holds
// tree nodes in a slice addressed by index; a routing node's children
// are nodes of the same arena, and only a link (a moved node) names one
// outside it, by a Ref. Everything else
// the arena holds is flat: one coordinate block (Dim floats per point
// slot) and one ID column, which a leaf indexes by its []int32 slots,
// and one box block (2·Dim floats per node). The arena owns descent,
// leaf splitting (median and chain policies), bounding-box
// maintenance, balanced and chain bulk building, the structural Check
// and the k-nearest / range traversals, which hand out Point views
// sliced from the block. The balanced build (build.go) works on rows —
// a point's coordinates and payload, moved together — and makes one
// fused pass per node: a branch-free selection of the median over a
// copy of the split coordinate, then one pass that moves the rows to
// their halves and fits both halves' exact boxes. It is O(n log n),
// keeps buckets in point-ID order and leaves the block in leaf order,
// so an arena is a function of the point set and has the shape of its
// snapshot columns; BulkLoadRows adopts the caller's block as the
// arena's. It is the one place the package starts goroutines: a large
// build runs its two halves at once, on disjoint rows, and lands the
// same nodes at any GOMAXPROCS. Tree — the sequential tree of Figures 4
// and 6 — is an Arena with no link; the distributed tree of
// internal/core hosts one Arena per partition and adds only what
// distribution needs (an Outside continuation the traversals call at a
// link).
package kdtree

import (
	"fmt"
	"math"
)

// Point is an indexed vector with an opaque payload identifier
// (in SemTree the triple ID) — what a tree takes in and what its
// searches hand out. A point an arena holds is copied into its blocks;
// the Coords of a Point the arena hands out is a view of its block and
// must not be mutated.
type Point struct {
	Coords []float64
	ID     uint64
}

// Neighbor is a search result: a point and its distance to the query.
type Neighbor struct {
	Point Point
	Dist  float64
}

// Stats counts the work done by a traversal; pass to the *WithStats
// search variants to measure pruning effectiveness. The counters map
// onto the distributed engine's per-query ExecStats so local and
// distributed measurements compare directly: NodesVisited ↔
// ExecStats.NodesVisited, LeavesVisited ↔ ExecStats.BucketsScanned,
// and PointsScanned ↔ ExecStats.DistanceEvals (every bucket point
// examined costs exactly one distance evaluation).
type Stats struct {
	NodesVisited  int // routing + leaf nodes touched
	LeavesVisited int // leaf nodes touched
	PointsScanned int // candidate points distance-tested in leaf buckets
}

// Ref addresses a tree node: the arena hosting it (Part) and the node's
// index there. A ref is local to an arena when Part equals the arena's
// Self — the paper's Cp == Childp test, resolved by one integer compare.
// What a foreign Part means is the embedder's business: a fabric node
// ID inside a live partition, a partition ordinal inside a snapshot.
type Ref struct {
	Part int32
	Node int32
}

// Local is the Self of an arena no partition hosts: a sequential Tree,
// or a fragment built client-side before it is shipped.
const Local int32 = -1

// Node is one tree node, in the arena, on the fabric and on disk alike
// (a partition message and a persisted snapshot both write only the
// fields its state uses and no box but a link's, which the reader
// rebuilds — see core.WriteSnapshot).
// Exactly one of three states holds:
//
//   - leaf:    data node; Slots index its bucket's points in the
//     arena's coordinate block and ID column;
//   - routing: SplitDim/SplitVal/Left/Right valid; points with
//     Coords[SplitDim] <= SplitVal belong to the left subtree. Both
//     children are nodes of the same arena (§III-B.1's internal node);
//   - moved:   a link — the one edge that leaves the arena: Fwd is the
//     direct link to the subtree's root on another partition (§III-B.2).
//     A spill turns a relocated leaf into one in place, so in-flight
//     operations that resolved the leaf keep working, and a trunk's
//     frontier is cut into links (Extract). The sequential Tree never
//     holds one.
//
// A node's region metadata lives in the arena's box block (Arena.Box):
// the exact d-dimensional bounding box of every point in its logical
// subtree ([+Inf, −Inf] for an empty subtree) — for a link, of the far
// subtree it leads to. The box is the search guard — its minimum
// distance to the query (BoxMinSq) subsumes the splitting-plane bound of
// §III-B.3, which only measures one dimension — and is kept exactly
// tight: expanded point-by-point on insert along the whole descent path,
// a link included (points are never removed), and recomputed from
// buckets on splits and bulk builds.
type Node struct {
	Leaf     bool
	Moved    bool
	SplitDim int32
	SplitVal float64
	Fwd      Ref
	Left     Ref
	Right    Ref
	Slots    []int32
}

// Arena is a set of tree nodes addressed by index, with the flat blocks
// they index. It is not safe for concurrent mutation; embedders that
// share one across goroutines bring their own lock. A fragment — what
// Extract cuts and Install moves in — is an Arena too: its local refs
// carry Part == Local and index its own Nodes.
type Arena struct {
	Nodes []Node
	// Coords holds Dim floats per point slot and IDs one ID; a leaf's
	// Slots index both. Slots are appended, never rewritten: a Point
	// view handed out stays valid.
	Coords []float64
	IDs    []uint64
	// Boxes holds 2·Dim floats per node, its box's low corner then its
	// high corner.
	Boxes      []float64
	Self       int32 // the Part that names this arena in a Ref
	Dim        int   // dimensionality of indexed points
	BucketSize int   // leaf capacity Bs
	// Chain selects the degenerate split policy behind the paper's
	// "totally unbalanced" curves in place of the median split.
	Chain bool
}

// Tree is a sequential bucket KD-tree: an Arena whose root is node 0
// and whose references never leave it. It is not safe for concurrent
// mutation; concurrent reads are safe once building is done.
type Tree struct {
	Arena
	size int
	path []int32 // Insert's descent scratch
}

// DefaultBucketSize is the leaf capacity Bs used when none is given.
const DefaultBucketSize = 16

// New returns an empty tree for points of the given dimensionality.
// bucketSize <= 0 selects DefaultBucketSize.
func New(dim, bucketSize int) (*Tree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("kdtree: dimension %d must be positive", dim)
	}
	if bucketSize <= 0 {
		bucketSize = DefaultBucketSize
	}
	t := &Tree{Arena: Arena{Self: Local, Dim: dim, BucketSize: bucketSize}}
	t.AddLeaf()
	return t, nil
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Insert adds a point, splitting the target leaf when its bucket
// saturates (Figure 1's red-node split). A point whose coordinates are
// not all Finite is refused.
func (t *Tree) Insert(p Point) error {
	if len(p.Coords) != t.Dim {
		return fmt.Errorf("kdtree: point has %d coords, tree dimension is %d", len(p.Coords), t.Dim)
	}
	if !Finite(p.Coords) {
		return fmt.Errorf("kdtree: a point with a NaN or infinite coordinate")
	}
	leaf, _, _, path := t.Descend(0, p.Coords, t.path[:0])
	t.path = path
	t.ExpandPath(t.path, p.Coords)
	t.Append(leaf, p)
	t.size++
	return nil
}

// Finite reports whether every coordinate is neither NaN nor infinite:
// what a point must be to be indexed. A split plane orders no NaN, and
// the midpoint of an infinite range (SplitLeaf) is NaN.
func Finite(coords []float64) bool {
	for _, v := range coords {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// IsLocal reports whether ref points into this arena.
func (a *Arena) IsLocal(ref Ref) bool { return ref.Part == a.Self }

// Ref returns the reference naming node idx of this arena.
func (a *Arena) Ref(idx int32) Ref { return Ref{Part: a.Self, Node: idx} }

// add appends a node with an empty box and returns its index.
func (a *Arena) add(n Node) int32 {
	a.Nodes = append(a.Nodes, n)
	a.Boxes = append(a.Boxes, make([]float64, 2*a.Dim)...)
	idx := int32(len(a.Nodes) - 1)
	emptyBox(a.box(idx))
	return idx
}

// AddLeaf appends an empty leaf and returns its index: the tree root of
// an empty tree.
func (a *Arena) AddLeaf() int32 { return a.add(Node{Leaf: true}) }

// addPoint copies p into the blocks and returns its slot.
func (a *Arena) addPoint(p Point) int32 {
	a.Coords = append(a.Coords, p.Coords...)
	a.IDs = append(a.IDs, p.ID)
	return int32(len(a.IDs) - 1)
}

// coords returns the coordinates of slot s as a view of the block,
// capped so an append to it cannot reach the next slot.
func (a *Arena) coords(s int32) []float64 {
	i := int(s) * a.Dim
	return a.Coords[i : i+a.Dim : i+a.Dim]
}

// coord returns coordinate d of slot s.
func (a *Arena) coord(s int32, d int) float64 { return a.Coords[int(s)*a.Dim+d] }

// Point returns the point in slot s, its coordinates a view of the
// block.
func (a *Arena) Point(s int32) Point { return Point{Coords: a.coords(s), ID: a.IDs[s]} }

// AppendBucket appends the points of the leaf at idx to dst, in bucket
// order, as views of the block.
func (a *Arena) AppendBucket(dst []Point, idx int32) []Point {
	for _, s := range a.Nodes[idx].Slots {
		dst = append(dst, a.Point(s))
	}
	return dst
}

// Append lands p in the leaf at idx, whose path boxes the caller has
// already expanded (Descend, ExpandPath), splitting the leaf when its
// bucket saturates.
func (a *Arena) Append(idx int32, p Point) {
	n := &a.Nodes[idx]
	n.Slots = append(n.Slots, a.addPoint(p))
	if len(n.Slots) > a.BucketSize {
		a.SplitLeaf(idx)
	}
}

// Tombstone turns node idx into a link to fwd, keeping its box: the
// subtree it held now lives behind fwd. The points its bucket held stay
// in the blocks until Compact.
func (a *Arena) Tombstone(idx int32, fwd Ref) {
	a.Nodes[idx] = Node{Moved: true, Fwd: fwd}
}

// Descend walks from idx towards the leaf that should hold pt. It stops
// at a local leaf (outside == false) or at a link, returning the link's
// Fwd, and appends every node it routes through — the leaf or the link
// included — to path, returning the extended slice, as append does: the
// nodes whose boxes must grow when the insert lands. Routing decisions
// are immutable once made, so a recorded path stays the point's route
// even if the leaf it ended on is split before the insert is applied.
func (a *Arena) Descend(idx int32, pt []float64, path []int32) (leaf int32, out Ref, outside bool, _ []int32) {
	for {
		n := &a.Nodes[idx]
		path = append(path, idx)
		switch {
		case n.Moved:
			return 0, n.Fwd, true, path
		case n.Leaf:
			return idx, Ref{}, false, path
		}
		idx = n.Right.Node
		if pt[n.SplitDim] <= n.SplitVal {
			idx = n.Left.Node
		}
	}
}

// SplitLeaf converts a saturated leaf into a routing node with two
// local leaf children (Figure 1). The median policy splits the
// dimension with the largest spread (letting the tree "adapt to
// different densities in various regions of the space", §III-B); the
// chain policy falls back to it when dimension 0 has no spread. When
// every dimension has zero spread the bucket is unsplittable (all
// points identical) and is allowed to exceed Bs.
func (a *Arena) SplitLeaf(idx int32) {
	bucket := a.Nodes[idx].Slots
	dim, splitVal, ok := a.splitPlane(idx, bucket)
	if !ok {
		return // all points identical: oversized leaf stands
	}
	var lb, rb []int32
	for _, s := range bucket {
		if a.coord(s, dim) <= splitVal {
			lb = append(lb, s)
		} else {
			rb = append(rb, s)
		}
	}
	li := a.add(Node{Leaf: true, Slots: lb})
	a.fitBox(li, lb)
	ri := a.add(Node{Leaf: true, Slots: rb})
	a.fitBox(ri, rb)
	n := &a.Nodes[idx] // re-take: add may have grown the arena
	n.Leaf = false
	n.Slots = nil
	n.SplitDim = int32(dim)
	n.SplitVal = splitVal
	n.Left = a.Ref(li)
	n.Right = a.Ref(ri)
}

// splitPlane picks the (Sr, Sv) pair that splits the bucket of the leaf
// at idx under the arena's policy. ok is false when the bucket is
// unsplittable. The median policy reads the widest dimension and its
// range off the leaf's box, which Append's contract keeps exact.
func (a *Arena) splitPlane(idx int32, bucket []int32) (dim int, splitVal float64, ok bool) {
	if a.Chain {
		if splitVal, ok = a.chainSplit(bucket); ok {
			return 0, splitVal, true
		}
	}
	lo, hi := a.box(idx)
	if dim, ok = widest(lo, hi); !ok {
		return 0, 0, false
	}
	return dim, a.medianSplit(bucket, dim, lo[dim], hi[dim]), true
}

// medianSplit picks Sv along dim: the median bucket value when it
// separates the points, otherwise the midpoint of the range. Both
// choices guarantee non-empty halves under the "<= goes left" rule,
// because lo < hi. Where lo + hi overflows, the ends are halved first.
func (a *Arena) medianSplit(bucket []int32, dim int, lo, hi float64) float64 {
	// Select over the bucket's keys: a bucket of up to len(stack) points
	// selects on the stack.
	var stack [64]float64
	keys := stack[:0]
	for _, s := range bucket {
		keys = append(keys, a.coord(s, dim))
	}
	k := (len(keys) - 1) / 2
	selectNth(keys, k)
	if med := keys[k]; med < hi {
		return med
	}
	if mid := (lo + hi) / 2; !math.IsInf(mid, 0) {
		return mid
	}
	return lo/2 + hi/2
}

// chainSplit is the degenerate split policy behind the paper's "totally
// unbalanced" curves: split on dimension 0 at the predecessor of the
// maximum, so monotonically increasing inserts grow a right-leaning
// chain. ok is false when dimension 0 has no spread.
func (a *Arena) chainSplit(bucket []int32) (splitVal float64, ok bool) {
	mx := a.coord(bucket[0], 0)
	for _, s := range bucket[1:] {
		if v := a.coord(s, 0); v > mx {
			mx = v
		}
	}
	// splitVal is the largest value strictly below the maximum, so the
	// maximum (and its duplicates) form the right side.
	for _, s := range bucket {
		if v := a.coord(s, 0); v < mx && (!ok || v > splitVal) {
			splitVal, ok = v, true
		}
	}
	return splitVal, ok
}

// leaves calls fn on every leaf of the local subtree rooted at idx, in
// traversal order. Links are not followed.
func (a *Arena) leaves(idx int32, fn func(n *Node)) {
	n := &a.Nodes[idx]
	switch {
	case n.Moved:
	case n.Leaf:
		fn(n)
	default:
		a.leaves(n.Left.Node, fn)
		a.leaves(n.Right.Node, fn)
	}
}

// Count returns the number of points in the local subtree rooted at
// idx.
func (a *Arena) Count(idx int32) int {
	count := 0
	a.leaves(idx, func(n *Node) { count += len(n.Slots) })
	return count
}

// Points returns all indexed points in traversal order, as views of
// the block.
func (t *Tree) Points() []Point {
	out := make([]Point, 0, t.size)
	t.leaves(0, func(n *Node) {
		for _, s := range n.Slots {
			out = append(out, t.Point(s))
		}
	})
	return out
}

// LeafCount returns the number of leaf nodes.
func (t *Tree) LeafCount() int {
	count := 0
	t.leaves(0, func(*Node) { count++ })
	return count
}

// Height returns the number of levels (a single leaf root has height 1).
func (t *Tree) Height() int { return t.height(0) }

func (a *Arena) height(idx int32) int {
	n := &a.Nodes[idx]
	if n.Leaf {
		return 1
	}
	l, r := a.height(n.Left.Node), a.height(n.Right.Node)
	if r > l {
		l = r
	}
	return l + 1
}
