package kdtree

import (
	"math/rand"
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
// every point; the trunk above them keeps only outside references.
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
	if len(trunk.Nodes) != 1 || trunk.Nodes[0].Left != (Ref{Part: 7, Node: 0}) || trunk.Nodes[0].Right != (Ref{Part: 7, Node: 1}) {
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
