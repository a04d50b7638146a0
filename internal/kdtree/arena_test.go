package kdtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestArenaLayout: a bulk-built arena is a strict tree in preorder —
// the root is referenced by nobody, every other node by exactly one
// parent whose index precedes it — and its leaves hold every point.
func TestArenaLayout(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	tr, err := BulkLoad(randomPoints(r, 300, 3), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]int, len(tr.Nodes))
	leaves, points := 0, 0
	for i, n := range tr.Nodes {
		if n.Leaf {
			leaves++
			points += len(n.Slots)
			continue
		}
		for _, c := range []Ref{n.Left, n.Right} {
			if !tr.IsLocal(c) || int(c.Node) <= i || int(c.Node) >= len(tr.Nodes) {
				t.Fatalf("node %d child %v not a later local node", i, c)
			}
			refs[c.Node]++
		}
	}
	if leaves != tr.LeafCount() || points != tr.Len() {
		t.Fatalf("arena holds %d leaves / %d points, tree reports %d / %d", leaves, points, tr.LeafCount(), tr.Len())
	}
	for i, n := range refs {
		if want := min(i, 1); n != want {
			t.Fatalf("node %d referenced %d times, want %d", i, n, want)
		}
	}
}

// TestExtractInstall: the two halves below the root, extracted as
// fragments and installed into a fresh arena (one over the entry leaf,
// one appended), are self-contained valid subtrees that together hold
// every point; the trunk above them ends in links.
func TestExtractInstall(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	tr, err := BulkLoad(randomPoints(r, 200, 2), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Nodes[0]
	left, right := tr.Extract(root.Left.Node, nil), tr.Extract(root.Right.Node, nil)
	trunk := tr.Extract(0, map[int32]Ref{
		root.Left.Node:  {Part: 7, Node: 0},
		root.Right.Node: {Part: 7, Node: 1},
	})
	if len(trunk.Nodes) != 3 || trunk.Nodes[1].Fwd != (Ref{Part: 7, Node: 0}) || trunk.Nodes[2].Fwd != (Ref{Part: 7, Node: 1}) {
		t.Fatalf("trunk = %+v", trunk)
	}

	dst, _ := New(2, 4)
	dst.Self = 7
	li, err := dst.Install(0, &left)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := dst.Install(-1, &right)
	if err != nil {
		t.Fatal(err)
	}
	if li != 0 || int(ri) != len(left.Nodes) {
		t.Fatalf("roots landed on %d and %d", li, ri)
	}
	total := 0
	for _, idx := range []int32{li, ri} {
		n, closed, err := dst.CheckSubtree(idx)
		if err != nil || !closed {
			t.Fatalf("installed subtree %d: closed=%v err=%v", idx, closed, err)
		}
		total += n
	}
	if total != tr.Len() || dst.Count(li)+dst.Count(ri) != tr.Len() {
		t.Fatalf("installed subtrees hold %d points, want %d", total, tr.Len())
	}

	// The trunk alone is open: its region extends outside the arena.
	open, _ := New(2, 4)
	if _, err := open.Install(0, &trunk); err != nil {
		t.Fatal(err)
	}
	if n, closed, err := open.CheckSubtree(0); err != nil || closed || n != 0 {
		t.Fatalf("trunk: points=%d closed=%v err=%v", n, closed, err)
	}
	if err := open.Check(); err == nil {
		t.Fatal("Tree.Check accepted a reference leaving the arena")
	}
}

// TestExtractCutsLinks: a cut node becomes a link that keeps the box of
// the subtree it cuts off, the only node of a fragment that leaves it;
// Install takes the links with their boxes, and Fit refuses a routing
// child that leaves the fragment.
func TestExtractCutsLinks(t *testing.T) {
	tr, err := BulkLoad(randomPoints(rand.New(rand.NewSource(24)), 300, 3), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Nodes[0]
	far := tr.Nodes[root.Right.Node]
	cut := map[int32]Ref{root.Left.Node: {Part: 4, Node: 0}, far.Left.Node: {Part: 5, Node: 2}, far.Right.Node: {Part: 5, Node: 0}}
	trunk := tr.Extract(0, cut)
	links := 0
	for i, n := range trunk.Nodes {
		if !n.Moved {
			continue
		}
		links++
		src := int32(-1)
		for idx, to := range cut {
			if to == n.Fwd {
				src = idx
			}
		}
		wlo, whi := tr.Box(src)
		if lo, hi := trunk.Box(int32(i)); src < 0 || !slices.Equal(lo, wlo) || !slices.Equal(hi, whi) {
			t.Fatalf("link %d to %v: box [%v, %v], want the cut subtree's [%v, %v]", i, n.Fwd, lo, hi, wlo, whi)
		}
	}
	if links != len(cut) || len(trunk.Nodes) != 2+len(cut) || len(trunk.IDs) != 0 {
		t.Fatalf("trunk of %d nodes, %d links and %d points, want %d nodes, %d links and none", len(trunk.Nodes), links, len(trunk.IDs), 2+len(cut), len(cut))
	}
	want := slices.Clone(trunk.Boxes)

	dst, _ := New(3, 8)
	dst.Self = 3
	if _, err := dst.Install(0, &trunk); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dst.Boxes, want) {
		t.Fatalf("installed trunk boxes %v, want %v", dst.Boxes, want)
	}
	for i, n := range dst.Nodes {
		if !n.Moved && !n.Leaf && (!dst.IsLocal(n.Left) || !dst.IsLocal(n.Right)) {
			t.Fatalf("installed node %d: a routing child leaves the arena: %+v", i, n)
		}
	}

	frag := Arena{Nodes: []Node{{Left: Ref{Part: Local, Node: 1}, Right: Ref{Part: Local, Node: 2}}, {Leaf: true}, {Leaf: true}}, Self: Local, Dim: 3}
	frag.Boxes = make([]float64, 2*3*len(frag.Nodes))
	if err := frag.Fit(3); err != nil {
		t.Fatalf("a fragment of local children: %v", err)
	}
	frag.Nodes[0].Right = Ref{Part: 4, Node: 0}
	if err := frag.Fit(3); err == nil {
		t.Fatal("Fit took a routing child that leaves the fragment")
	}
	if _, err := dst.Install(-1, &frag); err == nil {
		t.Fatal("Install took a routing child that leaves the fragment")
	}
}

// TestFitRefusesNonFinite: Fit, which every install and restore runs,
// refuses a point with a NaN or infinite coordinate, a routing node
// split at NaN, which orders no point — a range search would skip one
// side of it — or at ±Inf, whose far side no finite radius reaches, and
// a node that is a leaf and a link at once, which k-NN takes for the
// one and range search for the other.
func TestFitRefusesNonFinite(t *testing.T) {
	frag := func() *Arena {
		return &Arena{
			Nodes: []Node{
				{SplitVal: 0.5, Left: Ref{Part: Local, Node: 1}, Right: Ref{Part: Local, Node: 2}},
				{Leaf: true, Slots: []int32{0}},
				{Leaf: true, Slots: []int32{1}},
			},
			Coords: []float64{0, 1},
			IDs:    []uint64{1, 2},
			Boxes:  make([]float64, 6),
			Self:   Local,
			Dim:    1,
		}
	}
	if err := frag().Fit(1); err != nil {
		t.Fatalf("a finite fragment: %v", err)
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		f := frag()
		f.Coords[1] = v
		if err := f.Fit(1); err == nil {
			t.Errorf("a point at %v fitted", v)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := frag()
		f.Nodes[0].SplitVal = v
		if err := f.Fit(1); err == nil {
			t.Errorf("a split at %v fitted", v)
		}
	}
	f := frag()
	f.Nodes[2] = Node{Leaf: true, Moved: true, Fwd: Ref{Part: 7}}
	f.Coords, f.IDs = f.Coords[:1], f.IDs[:1]
	if err := f.Fit(1); err == nil {
		t.Error("a leaf and link at once fitted")
	}
	f.Nodes[2].Leaf = false
	if err := f.Fit(1); err != nil {
		t.Errorf("the same node as a plain link: %v", err)
	}
}

// TestCheckRejectsBrokenStructure: dangling and shared child references
// are diagnosed, in the arena and at the fragment boundary.
func TestCheckRejectsBrokenStructure(t *testing.T) {
	build := func() *Tree {
		tr, err := BulkLoad(randomPoints(rand.New(rand.NewSource(23)), 100, 2), 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for name, mutate := range map[string]func(tr *Tree){
		"dangling":    func(tr *Tree) { tr.Nodes[0].Right.Node = int32(len(tr.Nodes)) },
		"two-parents": func(tr *Tree) { tr.Nodes[0].Right = tr.Nodes[0].Left },
		"cycle":       func(tr *Tree) { tr.Nodes[tr.Nodes[0].Left.Node].Left.Node = 0 },
		"size":        func(tr *Tree) { tr.size++ },
	} {
		tr := build()
		if err := tr.Check(); err != nil {
			t.Fatalf("%s: fresh tree: %v", name, err)
		}
		mutate(tr)
		if err := tr.Check(); err == nil {
			t.Errorf("%s: Check accepted the broken arena", name)
		}
	}
	for name, child := range map[string]int32{"past-end": 3, "own-root": 0, "negative": -2} {
		frag := Arena{Nodes: []Node{{Left: Ref{Part: Local, Node: 1}, Right: Ref{Part: Local, Node: child}}, {Leaf: true}, {Leaf: true}}}
		dst, _ := New(2, 4)
		if _, err := dst.Install(0, &frag); err == nil {
			t.Errorf("%s: fragment child %d accepted", name, child)
		}
		if len(dst.Nodes) != 1 || !dst.Nodes[0].Leaf {
			t.Errorf("%s: rejected fragment mutated the arena", name)
		}
	}
	if _, err := (&Arena{}).Install(-1, &Arena{}); err == nil {
		t.Error("empty fragment accepted")
	}
}
