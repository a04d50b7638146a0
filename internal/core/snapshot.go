package core

import (
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// Partition snapshot persistence: the distributed tree's whole layout —
// every partition's node arena, exact per-subtree bounding boxes, and
// the remote-box caches guarding cross-partition edges — serialized so
// a fleet restarts without re-ingesting. Restore rebuilds partitions
// bit-for-bit: the arenas, boxes and caches are identical, so every
// traversal takes the same path and query results are byte-identical
// to the pre-save tree (the invariant the snapshot tests assert).
//
// Snapshots address partitions by ordinal (their position in the
// tree's partition list), never by fabric NodeID: a restore lands on a
// fresh fabric whose IDs need not match. Taking a snapshot requires
// quiescence — no concurrent inserts or bulk loads — like Rebalance.
//
// Restore trusts nothing: Validate walks the snapshot's cross-partition
// node graph iteratively (corrupt input must not overflow the stack),
// requiring exactly-one-state nodes, in-range references, a strict tree
// reachable from the root with tombstones as the only unreachable
// nodes, per-partition point accounting, and exact boxes everywhere —
// every violation is reported as ErrSnapshotCorrupt, never a panic.

// ErrSnapshotCorrupt reports snapshot bytes or structure that cannot be
// restored: truncated or garbled encodings, unknown format versions,
// and structural violations (bad references, inconsistent counts,
// inexact boxes). Test with errors.Is.
var ErrSnapshotCorrupt = errors.New("core: snapshot corrupt")

// SnapshotFormat is the version of the partition snapshot structure.
// Decoders accept exactly this version; anything else is corrupt (the
// facade's index snapshot carries its own envelope version on top).
const SnapshotFormat = 1

// Validation bounds: a snapshot claiming more is corrupt by fiat long
// before any allocation happens.
const (
	maxSnapshotParts = 1 << 16
	maxSnapshotDim   = 1 << 12
)

// RemoteBox is one cached cross-partition region: the edge's target and
// the exact box of the subtree behind it.
type RemoteBox struct {
	Ref    kdtree.Ref
	Lo, Hi []float64
}

// PartitionSnapshot is one partition's full state: its arena — every
// node in exactly one of the kdtree.Node states, Lo/Hi the exact
// logical-subtree box — its point count and its remote-box cache. The
// Part of every reference in it is a partition ordinal
// (TreeSnapshot.Parts index) at rest, and a fabric NodeID in the
// messages partitions produce and consume; the client translates at
// the edge (mapRefs).
type PartitionSnapshot struct {
	Nodes  []kdtree.Node
	Points int
	Remote []RemoteBox
}

// TreeSnapshot is the whole distributed tree, partition ordinal 0
// holding the tree root at node 0.
type TreeSnapshot struct {
	Format int
	Dim    int
	Size   int64
	Parts  []PartitionSnapshot
}

// mapRefs rewrites the Part of every live reference in ps — forward
// links, routing children, cache keys — through part.
func (ps *PartitionSnapshot) mapRefs(part func(int32) (int32, error)) (err error) {
	remap := func(r *kdtree.Ref) {
		if err == nil {
			r.Part, err = part(r.Part)
		}
	}
	for i := range ps.Remote {
		remap(&ps.Remote[i].Ref)
	}
	for i := range ps.Nodes {
		switch n := &ps.Nodes[i]; {
		case n.Moved:
			remap(&n.Fwd)
		case !n.Leaf:
			remap(&n.Left)
			remap(&n.Right)
		}
	}
	return err
}

// walk visits every leaf of the logical subtree rooted at ref in
// preorder — left before right, a tombstone followed through its
// forward link — with the leaf's depth (ref itself is at the depth
// given; a tombstone adds no level). Refs are ordinals, as everywhere
// in a snapshot at rest. It recurses and trusts every reference: for
// snapshots Tree.Snapshot took, not for decoded ones.
func (s *TreeSnapshot) walk(ref kdtree.Ref, depth int, leaf func(n *kdtree.Node, depth int)) {
	switch n := &s.Parts[ref.Part].Nodes[ref.Node]; {
	case n.Moved:
		s.walk(n.Fwd, depth, leaf)
	case n.Leaf:
		leaf(n, depth)
	default:
		s.walk(n.Left, depth+1, leaf)
		s.walk(n.Right, depth+1, leaf)
	}
}

// pointsUnder gathers the points of the logical subtree rooted at ref,
// bucket by bucket in walk order.
func (s *TreeSnapshot) pointsUnder(ref kdtree.Ref) []kdtree.Point {
	var pts []kdtree.Point
	s.walk(ref, 1, func(n *kdtree.Node, _ int) { pts = append(pts, n.Bucket...) })
	return pts
}

// copyNodes deep-copies an arena's nodes. Buckets share point storage
// (points are immutable), but bucket slices and boxes are owned copies —
// a live arena keeps appending to and expanding its own.
func copyNodes(nodes []kdtree.Node) []kdtree.Node {
	out := make([]kdtree.Node, len(nodes))
	for i, n := range nodes {
		n.Bucket = append([]kdtree.Point(nil), n.Bucket...)
		n.Lo = append([]float64(nil), n.Lo...)
		n.Hi = append([]float64(nil), n.Hi...)
		out[i] = n
	}
	return out
}

// handleSnapshot deep-copies the partition's state under the read lock.
// The remote-box cache is a map; it is emitted in (Part, Node) order so
// a snapshot's bytes are a function of the partition's state.
func (p *partition) handleSnapshot() (any, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := PartitionSnapshot{Nodes: copyNodes(p.Nodes), Points: p.points}
	refs := slices.SortedFunc(maps.Keys(p.remoteBoxes), func(a, b kdtree.Ref) int {
		return cmp.Or(cmp.Compare(a.Part, b.Part), cmp.Compare(a.Node, b.Node))
	})
	for _, ref := range refs {
		b := p.remoteBoxes[ref]
		c := copyBox(b.lo, b.hi)
		st.Remote = append(st.Remote, RemoteBox{Ref: ref, Lo: c.lo, Hi: c.hi})
	}
	return snapshotResp{State: st}, nil
}

// handleRestore replaces the partition's state wholesale under the
// write lock. Slices are copied: on an in-process fabric the request
// aliases client memory.
func (p *partition) handleRestore(r restoreReq) (any, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Nodes = copyNodes(r.State.Nodes)
	p.points = r.State.Points
	p.remoteBoxes = nil
	for _, e := range r.State.Remote {
		p.cacheRemoteBox(e.Ref, e.Lo, e.Hi)
	}
	return ack{}, nil
}

// Snapshot captures the whole tree's layout. It requires quiescence
// (like Rebalance): a partition appearing mid-capture is reported as an
// error, never a torn snapshot.
func (t *Tree) Snapshot() (*TreeSnapshot, error) {
	t.mu.RLock()
	parts := append([]*partition(nil), t.parts...)
	t.mu.RUnlock()
	ord := make(map[int32]int32, len(parts))
	for i, p := range parts {
		ord[p.Self] = int32(i)
	}
	toOrdinal := func(id int32) (int32, error) {
		o, ok := ord[id]
		if !ok {
			return 0, fmt.Errorf("core: snapshot requires quiescence: reference to partition %d created mid-capture", id)
		}
		return o, nil
	}
	snap := &TreeSnapshot{Format: SnapshotFormat, Dim: t.cfg.Dim, Size: t.size.Load()}
	for _, p := range parts {
		resp, err := t.call(cluster.ClientID, p.id, snapshotReq{})
		if err != nil {
			return nil, err
		}
		ps := resp.(snapshotResp).State
		if err := ps.mapRefs(toOrdinal); err != nil {
			return nil, err
		}
		snap.Parts = append(snap.Parts, ps)
	}
	return snap, nil
}

// RestoreTree reconstructs a tree from a snapshot on a fresh set of
// partitions. cfg.Dim is taken from the snapshot and cfg.MaxPartitions
// is raised to the snapshot's partition count when lower (the snapshot
// describes a fleet that already exists; the budget only limits future
// growth). The snapshot is validated first: malformed input returns
// ErrSnapshotCorrupt. The restored tree answers every query
// byte-identically to the tree the snapshot was taken from.
func RestoreTree(cfg Config, snap *TreeSnapshot) (*Tree, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	cfg.Dim = snap.Dim
	if cfg.MaxPartitions < len(snap.Parts) {
		cfg.MaxPartitions = len(snap.Parts)
	}
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ids := []cluster.NodeID{t.rootPartition().id}
	ids = append(ids, t.allocPartitions(len(snap.Parts)-1)...)
	if len(ids) != len(snap.Parts) {
		t.Close()
		return nil, fmt.Errorf("core: restore allocated %d of %d partitions", len(ids), len(snap.Parts))
	}
	toID := func(ordinal int32) (int32, error) { return int32(ids[ordinal]), nil } // in range: validated
	for i, ps := range snap.Parts {
		// The snapshot stays the caller's: translate a copy of the node
		// and cache tables (buckets and boxes are shared; the partition
		// copies them on the way in).
		ps.Nodes = append([]kdtree.Node(nil), ps.Nodes...)
		ps.Remote = append([]RemoteBox(nil), ps.Remote...)
		_ = ps.mapRefs(toID)
		if _, err := t.call(cluster.ClientID, ids[i], restoreReq{State: ps}); err != nil {
			t.Close()
			return nil, fmt.Errorf("core: restore partition %d: %w", i, err)
		}
	}
	t.size.Store(snap.Size)
	return t, nil
}

// EncodeSnapshot writes the snapshot's gob encoding to w.
func EncodeSnapshot(w io.Writer, s *TreeSnapshot) error {
	return gob.NewEncoder(w).Encode(s)
}

// DecodeSnapshot reads a gob-encoded snapshot from r. Truncated or
// garbled input returns ErrSnapshotCorrupt; the result is not yet
// structurally validated (RestoreTree does that).
func DecodeSnapshot(r io.Reader) (*TreeSnapshot, error) {
	var s TreeSnapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrSnapshotCorrupt, err)
	}
	return &s, nil
}

// corrupt builds an ErrSnapshotCorrupt violation report.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// Validate checks the snapshot's structural invariants — the same ones
// a live tree maintains — and returns ErrSnapshotCorrupt on any
// violation: unknown format, out-of-range references, nodes in an
// impossible state, a reachable graph that is not a strict tree,
// point-count mismatches, or boxes that are not exactly the box of the
// points below them. The walk is iterative: adversarial input cannot
// overflow the stack.
func (s *TreeSnapshot) Validate() error {
	if s.Format != SnapshotFormat {
		return corrupt("format %d, want %d", s.Format, SnapshotFormat)
	}
	if s.Dim < 1 || s.Dim > maxSnapshotDim {
		return corrupt("dimension %d out of range", s.Dim)
	}
	if len(s.Parts) < 1 || len(s.Parts) > maxSnapshotParts {
		return corrupt("%d partitions out of range", len(s.Parts))
	}
	if len(s.Parts[0].Nodes) == 0 {
		return corrupt("root partition has no nodes")
	}
	refOK := func(r kdtree.Ref) bool {
		return r.Part >= 0 && int(r.Part) < len(s.Parts) &&
			r.Node >= 0 && int(r.Node) < len(s.Parts[r.Part].Nodes)
	}
	boxOK := func(lo, hi []float64) bool {
		if (lo == nil) != (hi == nil) {
			return false
		}
		return lo == nil || (len(lo) == s.Dim && len(hi) == s.Dim)
	}
	total := int64(0)
	for pi := range s.Parts {
		ps := &s.Parts[pi]
		if ps.Points < 0 {
			return corrupt("partition %d: negative point count", pi)
		}
		local := 0
		for ni := range ps.Nodes {
			n := &ps.Nodes[ni]
			if n.Leaf && n.Moved {
				return corrupt("partition %d node %d: leaf and tombstone at once", pi, ni)
			}
			if !boxOK(n.Lo, n.Hi) {
				return corrupt("partition %d node %d: malformed box", pi, ni)
			}
			switch {
			case n.Moved:
				if len(n.Bucket) != 0 || n.Lo != nil {
					return corrupt("partition %d node %d: tombstone carries data", pi, ni)
				}
				if !refOK(n.Fwd) {
					return corrupt("partition %d node %d: dangling forward", pi, ni)
				}
			case n.Leaf:
				for bi, pt := range n.Bucket {
					if len(pt.Coords) != s.Dim {
						return corrupt("partition %d node %d: point %d has %d coords, want %d", pi, ni, bi, len(pt.Coords), s.Dim)
					}
				}
				lo, hi := kdtree.BoxOf(n.Bucket)
				if !boxEqual(lo, hi, n.Lo, n.Hi) {
					return corrupt("partition %d node %d: leaf box not exact", pi, ni)
				}
				local += len(n.Bucket)
			default:
				if len(n.Bucket) != 0 {
					return corrupt("partition %d node %d: routing node carries a bucket", pi, ni)
				}
				if int(n.SplitDim) < 0 || int(n.SplitDim) >= s.Dim {
					return corrupt("partition %d node %d: split dimension %d out of range", pi, ni, n.SplitDim)
				}
				if !refOK(n.Left) || !refOK(n.Right) {
					return corrupt("partition %d node %d: dangling child", pi, ni)
				}
			}
		}
		if local != ps.Points {
			return corrupt("partition %d: %d bucket points, Points says %d", pi, local, ps.Points)
		}
		total += int64(local)
		for ei, e := range ps.Remote {
			if !refOK(e.Ref) {
				return corrupt("partition %d remote entry %d: dangling reference", pi, ei)
			}
			if e.Lo == nil || !boxOK(e.Lo, e.Hi) {
				return corrupt("partition %d remote entry %d: malformed box", pi, ei)
			}
			tn := &s.Parts[e.Ref.Part].Nodes[e.Ref.Node]
			if !boxEqual(e.Lo, e.Hi, tn.Lo, tn.Hi) {
				return corrupt("partition %d remote entry %d: cached box not exact", pi, ei)
			}
		}
	}
	if total != s.Size {
		return corrupt("%d points across partitions, Size says %d", total, s.Size)
	}
	return s.validateReachable()
}

// validateReachable walks the child graph from the root iteratively,
// requiring a strict tree (each node one parent, no cycles, no
// tombstones as children), exact routing boxes (the union of the
// children's), and that everything unreachable is a tombstone.
func (s *TreeSnapshot) validateReachable() error {
	node := func(r kdtree.Ref) *kdtree.Node { return &s.Parts[r.Part].Nodes[r.Node] }
	seen := make(map[kdtree.Ref]bool)
	// Two-phase iterative DFS: push(enter ref) visits, push(exit ref)
	// re-checks the box once both children were visited.
	type frame struct {
		ref  kdtree.Ref
		exit bool
	}
	stack := []frame{{ref: kdtree.Ref{}}}
	seen[kdtree.Ref{}] = true
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := node(f.ref)
		if f.exit {
			l, r := node(n.Left), node(n.Right)
			lo, hi := kdtree.UnionBox(nil, nil, l.Lo, l.Hi)
			lo, hi = kdtree.UnionBox(lo, hi, r.Lo, r.Hi)
			if !boxEqual(lo, hi, n.Lo, n.Hi) {
				return corrupt("partition %d node %d: routing box not the union of its children", f.ref.Part, f.ref.Node)
			}
			continue
		}
		if n.Moved {
			return corrupt("partition %d node %d: tombstone reachable as a child", f.ref.Part, f.ref.Node)
		}
		if n.Leaf {
			continue
		}
		stack = append(stack, frame{ref: f.ref, exit: true})
		for _, c := range []kdtree.Ref{n.Left, n.Right} {
			if seen[c] {
				return corrupt("partition %d node %d: child %v has two parents or sits on a cycle", f.ref.Part, f.ref.Node, c)
			}
			seen[c] = true
			stack = append(stack, frame{ref: c})
		}
	}
	for pi := range s.Parts {
		for ni := range s.Parts[pi].Nodes {
			if n := &s.Parts[pi].Nodes[ni]; !n.Moved && !seen[kdtree.Ref{Part: int32(pi), Node: int32(ni)}] {
				return corrupt("partition %d node %d: unreachable non-tombstone", pi, ni)
			}
		}
	}
	return nil
}

// boxEqual reports exact equality of two boxes (nil equals nil).
func boxEqual(alo, ahi, blo, bhi []float64) bool {
	if (alo == nil) != (blo == nil) || len(alo) != len(blo) {
		return false
	}
	for d := range alo {
		if alo[d] != blo[d] || ahi[d] != bhi[d] {
			return false
		}
	}
	return true
}
