package kdtree

import (
	"fmt"
	"math"
	"slices"
)

// A fragment is an Arena holding a subtree cut out of another one, or
// built to be shipped: its nodes in preorder, root first, local refs
// carrying Part == Local and indexing the fragment itself, and blocks
// holding exactly the points its leaves hold, leaves in node order.
// Extract cuts one, Install moves one in, and a partition snapshot is
// one arena in the same layout (Clone).

// Extract copies the local subtree rooted at root into a fragment.
// Children listed in cut are not descended; their references are
// replaced by the given outside ones — how a trunk is separated from
// the frontier subtrees that ship to other arenas. The fragment's
// blocks are sized exactly.
func (a *Arena) Extract(root int32, cut map[int32]Ref) Arena {
	var count func(ref Ref) int // the nodes walk copies below ref
	count = func(ref Ref) int {
		if _, ok := cut[ref.Node]; ok || !a.IsLocal(ref) {
			return 0
		}
		if n := &a.Nodes[ref.Node]; !n.Leaf && !n.Moved {
			return 1 + count(n.Left) + count(n.Right)
		}
		return 1
	}
	size := count(a.Ref(root))
	f := Arena{Self: Local, Dim: a.Dim, Nodes: make([]Node, 0, size), Boxes: make([]float64, 0, 2*a.Dim*size)}
	var walk func(ref Ref) Ref
	walk = func(ref Ref) Ref {
		if !a.IsLocal(ref) {
			return ref
		}
		if to, ok := cut[ref.Node]; ok {
			return to
		}
		at := int32(len(f.Nodes))
		n := a.Nodes[ref.Node]
		lo, hi := a.box(ref.Node)
		f.Nodes = append(f.Nodes, n)
		f.Boxes = append(append(f.Boxes, lo...), hi...)
		if !n.Leaf && !n.Moved {
			l, r := walk(n.Left), walk(n.Right)
			f.Nodes[at].Left, f.Nodes[at].Right = l, r
		}
		return Ref{Part: Local, Node: at}
	}
	walk(a.Ref(root))
	f.Coords, f.IDs = a.pack(f.Nodes) // the leaves still hold a's slots
	return f
}

// carve returns slots[k:k+n], capped, or nil when n is 0.
func carve(slots []int32, k, n int) []int32 {
	if n == 0 {
		return nil
	}
	return slots[k : k+n : k+n]
}

// Install moves a fragment into the arena and returns the index its
// root landed on: slot entry when entry >= 0 — the fragment replaces
// that node — or a fresh slot otherwise; the other nodes append in
// order. Fragment-local refs are rebased onto the arena and its points
// onto the arena's blocks; when the fragment becomes the arena's only
// nodes or only points, its node list or point blocks are adopted
// whole, with no copy and no growth slack. The fragment is consumed. A
// fragment that is not a Local one or does not Fit the arena's
// dimension is rejected with the arena untouched.
func (a *Arena) Install(entry int32, frag *Arena) (int32, error) {
	if len(frag.Nodes) == 0 || frag.Self != Local {
		return 0, fmt.Errorf("kdtree: an empty fragment or one of partition %d", frag.Self)
	}
	if err := frag.Fit(a.Dim); err != nil {
		return 0, err
	}
	root := a.link(entry, frag)
	if len(a.IDs) == 0 {
		a.Coords, a.IDs = frag.Coords, frag.IDs
	} else {
		base := int32(len(a.IDs))
		a.Coords = append(a.Coords, frag.Coords...)
		a.IDs = append(a.IDs, frag.IDs...)
		for i := range frag.Nodes {
			for j := range frag.Nodes[i].Slots {
				frag.Nodes[i].Slots[j] += base
			}
		}
	}
	a.place(entry, frag)
	return root, nil
}

// Fit checks that frag's blocks fit its nodes and an arena of
// dimension dim, every slot indexing a point and no coordinate NaN, and
// that its nodes form a forest any walk ends in: every split dimension
// below dim, every local child after its parent, no tombstone
// forwarding inside frag.
func (frag *Arena) Fit(dim int) error {
	if frag.Dim != dim {
		return fmt.Errorf("kdtree: fragment of dimension %d, arena of %d", frag.Dim, dim)
	}
	if len(frag.Boxes) != 2*dim*len(frag.Nodes) || len(frag.Coords) != dim*len(frag.IDs) {
		return fmt.Errorf("kdtree: fragment blocks of %d box and %d coordinate floats for %d nodes and %d points",
			len(frag.Boxes), len(frag.Coords), len(frag.Nodes), len(frag.IDs))
	}
	if slices.ContainsFunc(frag.Coords, math.IsNaN) {
		return fmt.Errorf("kdtree: a fragment point with a NaN coordinate")
	}
	for i := range frag.Nodes {
		n := &frag.Nodes[i]
		for _, s := range n.Slots {
			if s < 0 || int(s) >= len(frag.IDs) {
				return fmt.Errorf("kdtree: fragment node %d: slot %d out of range", i, s)
			}
		}
		switch {
		case n.Moved && frag.IsLocal(n.Fwd):
			return fmt.Errorf("kdtree: fragment node %d: a tombstone forwarding to node %d", i, n.Fwd.Node)
		case n.Leaf || n.Moved:
		case n.SplitDim < 0 || int(n.SplitDim) >= dim:
			return fmt.Errorf("kdtree: fragment node %d: split dimension %d", i, n.SplitDim)
		default:
			for _, c := range [2]Ref{n.Left, n.Right} {
				if frag.IsLocal(c) && (c.Node <= int32(i) || int(c.Node) >= len(frag.Nodes)) {
					return fmt.Errorf("kdtree: fragment node %d: child %d out of range", i, c.Node)
				}
			}
		}
	}
	return nil
}

// link rebases frag's local refs onto the indices its nodes take when
// placed at entry (see Install) and returns the root's. frag Fits.
func (a *Arena) link(entry int32, frag *Arena) int32 {
	// frag.Nodes[j] lands on base+j, except the root when it takes slot entry.
	base := int32(len(a.Nodes))
	root := base
	if entry >= 0 {
		base--
		root = entry
	}
	for j := range frag.Nodes {
		n := &frag.Nodes[j]
		if n.Leaf || n.Moved {
			continue
		}
		for _, c := range [2]*Ref{&n.Left, &n.Right} {
			if c.Part == Local {
				*c = a.Ref(base + c.Node)
			}
		}
	}
	return root
}

// place moves frag's linked nodes and their boxes into the arena, the
// root over slot entry when entry >= 0.
func (a *Arena) place(entry int32, frag *Arena) {
	if whole := len(a.Nodes) == 0 || (entry >= 0 && len(a.Nodes) == 1); whole {
		a.Nodes, a.Boxes = frag.Nodes, frag.Boxes // the fragment is the whole arena
		return
	}
	nodes, boxes := frag.Nodes, frag.Boxes
	if entry >= 0 {
		a.Nodes[entry] = nodes[0]
		lo, hi := a.box(entry)
		copy(lo, boxes[:a.Dim])
		copy(hi, boxes[a.Dim:2*a.Dim])
		nodes, boxes = nodes[1:], boxes[2*a.Dim:]
	}
	a.Nodes = append(a.Nodes, nodes...)
	a.Boxes = append(a.Boxes, boxes...)
}

// Clone returns a deep copy of the arena's nodes and boxes, with its
// Self and dimension, whose point blocks hold exactly the points its
// leaves hold, leaves in node order: the layout a snapshot's columns
// have.
func (a *Arena) Clone() Arena {
	c := Arena{Nodes: slices.Clone(a.Nodes), Boxes: slices.Clone(a.Boxes), Self: a.Self, Dim: a.Dim}
	c.Coords, c.IDs = a.pack(c.Nodes)
	return c
}

// Restore replaces the arena's nodes and blocks with a Clone of src's,
// which must be an arena of the same partition and Fit its dimension
// (see Install). src is not modified.
func (a *Arena) Restore(src *Arena) error {
	s := *src
	if s.Self != a.Self {
		return fmt.Errorf("kdtree: the state of partition %d restored over %d", s.Self, a.Self)
	}
	if err := s.Fit(a.Dim); err != nil {
		return err
	}
	c := s.Clone()
	a.Nodes, a.Coords, a.IDs, a.Boxes = c.Nodes, c.Coords, c.IDs, c.Boxes
	return nil
}

// Compact drops the points no leaf holds any more — those of leaves a
// spill relocated — from the blocks. Point views handed out before stay
// valid: the blocks are replaced, not rewritten.
func (a *Arena) Compact() { a.Coords, a.IDs = a.pack(a.Nodes) }

// pack copies the points the leaves of nodes hold, in node order, into
// fresh blocks sized exactly, and re-carves every leaf's slots from one
// array to index them. Other nodes lose any slots.
func (a *Arena) pack(nodes []Node) (coords []float64, ids []uint64) {
	total := 0
	for i := range nodes {
		if nodes[i].Leaf {
			total += len(nodes[i].Slots)
		}
	}
	coords = make([]float64, 0, total*a.Dim)
	ids = make([]uint64, 0, total)
	slots := make([]int32, total)
	for i := range nodes {
		n := &nodes[i]
		if !n.Leaf {
			n.Slots = nil
			continue
		}
		k := len(ids)
		for j, s := range n.Slots {
			slots[k+j] = int32(k + j)
			coords = append(coords, a.coords(s)...)
			ids = append(ids, a.IDs[s])
		}
		n.Slots = carve(slots, k, len(n.Slots))
	}
	return coords, ids
}
