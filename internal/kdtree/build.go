package kdtree

import (
	"fmt"
	"sort"
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
		sort.Slice(pts, func(i, j int) bool { return pts[i].Coords[0] < pts[j].Coords[0] })
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

// setLeaf makes node idx a leaf owning a copy of pts, with its exact box.
func (a *Arena) setLeaf(idx int32, pts []Point) {
	n := &a.Nodes[idx]
	*n = Node{Leaf: true, Bucket: append([]Point(nil), pts...)}
	n.Lo, n.Hi = BoxOf(n.Bucket)
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

// Build overwrites node idx with a balanced subtree over pts, built by
// recursive median splits straight into the arena: the subtree root
// takes slot idx and its descendants append in preorder, every box
// exact. pts is reordered in place; leaf buckets are copies, so the
// caller keeps its slice.
func (a *Arena) Build(idx int32, pts []Point) {
	if len(pts) <= a.BucketSize {
		a.setLeaf(idx, pts)
		return
	}
	d, _, _, ok := widestDimension(pts, a.Dim)
	if !ok {
		a.setLeaf(idx, pts) // all points identical: unsplittable oversized leaf
		return
	}
	//semtree:allow boundaryonce: construction-time sort to pick the median cut; not on the query-result path
	sort.Slice(pts, func(i, j int) bool { return pts[i].Coords[d] < pts[j].Coords[d] })
	// A valid cut c needs pts[c-1] < pts[c] on dimension d, so that
	// "<= goes left" keeps both halves non-empty with duplicates
	// present. Pick the valid cut closest to the median; one exists
	// because widestDimension guarantees spread > 0.
	mid := len(pts) / 2
	cutUp := mid
	for cutUp < len(pts) && pts[cutUp].Coords[d] == pts[cutUp-1].Coords[d] {
		cutUp++
	}
	cutDown := mid
	for cutDown > 0 && pts[cutDown].Coords[d] == pts[cutDown-1].Coords[d] {
		cutDown--
	}
	cut := cutUp
	if cutUp == len(pts) || (cutDown > 0 && mid-cutDown < cutUp-mid) {
		cut = cutDown
	}
	splitVal := pts[cut-1].Coords[d]
	li := a.add(Node{})
	a.Build(li, pts[:cut])
	ri := a.add(Node{})
	a.Build(ri, pts[cut:])
	a.setRouting(idx, d, splitVal, li, ri)
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
	if cut >= len(pts) {
		a.setLeaf(idx, pts)
		return
	}
	li := a.add(Node{})
	a.setLeaf(li, pts[:cut])
	ri := a.add(Node{})
	a.buildChain(ri, pts[cut:])
	a.setRouting(idx, 0, pts[cut-1].Coords[0], li, ri)
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
