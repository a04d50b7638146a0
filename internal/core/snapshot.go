package core

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"

	"semtree/internal/cluster"
	"semtree/internal/column"
	"semtree/internal/kdtree"
)

// Partition snapshot persistence: the distributed tree's whole layout —
// every partition's arena, exact per-subtree bounding boxes, and the
// remote-box caches guarding cross-partition edges — serialized so a
// fleet restarts without re-ingesting. A snapshot's arena has the shape
// of its columns: its blocks hold the points its leaves hold, leaves in
// node order (kdtree.Arena.Clone), so the encoding (WriteSnapshot)
// writes the ID column and the coordinate block as they stand, and
// decoding reads them back in place. Nodes and cache refs are written
// too, but no box: every box is a function of the points below it, and
// decoding rebuilds them. A partition message carries an arena in the
// same columns (appendState, in messages.go). Restore
// rebuilds partitions bit-for-bit: the arenas, boxes and caches are
// identical, so every traversal takes the same path and query results
// are byte-identical to the pre-save tree (the invariant the snapshot
// tests assert).
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

// SnapshotFormat is the version of the partition snapshot encoding:
// the header version of an EncodeSnapshot stream, and the Format every
// snapshot Validate accepts. Format 1 was a gob stream with every box
// stored; 2 is WriteSnapshot's columns. Decoders accept exactly this
// version; anything else is corrupt (the facade's index snapshot
// carries its own header version and embeds the columns only).
const SnapshotFormat = 2

// Validation bounds: a snapshot claiming more is corrupt by fiat long
// before any allocation happens. MaxSnapshotDim also bounds the
// dimension in an index snapshot's header.
const (
	maxSnapshotParts = 1 << 16
	MaxSnapshotDim   = 1 << 12
)

// RemoteBox is one cached cross-partition region: the edge's target and
// the exact box of the subtree behind it.
type RemoteBox struct {
	Ref    kdtree.Ref
	Lo, Hi []float64
}

// PartitionSnapshot is one partition's full state: its arena — every
// node in exactly one of the kdtree.Node states, its box the exact
// logical-subtree box, and the blocks holding the bucket points leaf by
// leaf in node order — its point count and its remote-box cache. The
// arena's Self and the Part of every reference in it are partition
// ordinals (TreeSnapshot.Parts indices) at rest, and fabric NodeIDs in
// the messages partitions produce and consume; the client translates
// at the edge (mapRefs, and Self beside it).
type PartitionSnapshot struct {
	kdtree.Arena
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
func (s *TreeSnapshot) walk(ref kdtree.Ref, depth int, leaf func(ref kdtree.Ref, depth int)) {
	switch n := &s.Parts[ref.Part].Nodes[ref.Node]; {
	case n.Moved:
		s.walk(n.Fwd, depth, leaf)
	case n.Leaf:
		leaf(ref, depth)
	default:
		s.walk(n.Left, depth+1, leaf)
		s.walk(n.Right, depth+1, leaf)
	}
}

// pointsUnder gathers the points of the logical subtree rooted at ref,
// bucket by bucket in walk order, as views of the snapshot's blocks.
func (s *TreeSnapshot) pointsUnder(ref kdtree.Ref) []kdtree.Point {
	var pts []kdtree.Point
	s.walk(ref, 1, func(r kdtree.Ref, _ int) { pts = s.Parts[r.Part].AppendBucket(pts, r.Node) })
	return pts
}

// handleSnapshot deep-copies the partition's state under the read lock:
// its arena in the snapshot layout (kdtree.Arena.Clone, a handful of
// allocations whatever its size). The remote-box cache is a map; it is
// emitted in (Part, Node) order so a snapshot's bytes are a function of
// the partition's state.
func (p *partition) handleSnapshot() (any, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := PartitionSnapshot{Arena: p.Clone(), Points: p.points}
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
// write lock. The arena is copied (kdtree.Arena.Restore): on an
// in-process fabric the request aliases client memory.
func (p *partition) handleRestore(r restoreReq) (any, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.Restore(&r.State.Arena); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
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
	for i, p := range parts {
		resp, err := t.call(cluster.ClientID, p.id, snapshotReq{})
		if err != nil {
			return nil, err
		}
		ps := resp.(snapshotResp).State
		if err := ps.mapRefs(toOrdinal); err != nil {
			return nil, err
		}
		ps.Self = int32(i)
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
		// and cache tables (the blocks are shared; the partition copies
		// them on the way in).
		ps.Nodes = slices.Clone(ps.Nodes)
		ps.Remote = append([]RemoteBox(nil), ps.Remote...)
		_ = ps.mapRefs(toID)
		ps.Self = int32(ids[i])
		if _, err := t.call(cluster.ClientID, ids[i], restoreReq{State: ps}); err != nil {
			t.Close()
			return nil, fmt.Errorf("core: restore partition %d: %w", i, err)
		}
	}
	t.size.Store(snap.Size)
	return t, nil
}

// EncodeSnapshot writes the snapshot to w as a column stream: the
// header (version SnapshotFormat, the dimension), then WriteSnapshot's
// columns.
func EncodeSnapshot(w io.Writer, s *TreeSnapshot) error {
	cw := column.NewWriter(w)
	cw.Header(byte(s.Format), uint32(s.Dim))
	if err := WriteSnapshot(cw, s); err != nil {
		return err
	}
	return cw.Flush()
}

// DecodeSnapshot reads a stream EncodeSnapshot wrote. Truncated or
// garbled input and any format but SnapshotFormat return
// ErrSnapshotCorrupt; the result is not yet structurally validated
// (RestoreTree does that).
func DecodeSnapshot(r io.Reader) (*TreeSnapshot, error) {
	cr := column.NewReader(r)
	format, dim, err := cr.Header()
	if err != nil {
		return nil, corrupt("%v", err)
	}
	if format != SnapshotFormat {
		return nil, corrupt("format %d, want %d", format, SnapshotFormat)
	}
	return ReadSnapshot(cr, int(dim))
}

// Node states in the node column: a bit each for kdtree.Node's Leaf
// and Moved.
const (
	stateLeaf  byte = 1
	stateMoved byte = 2
)

// WriteSnapshot writes the tree's columns, without a header: the
// caller's header carries the dimension. The first column holds Size
// and the partition count; then each partition writes four:
//
//   - nodes: Points, the node count, and per node its state byte
//     followed by, for a tombstone, Fwd; for a leaf, its bucket length;
//     for a routing node, SplitDim, SplitVal (raw) and both children.
//     Counts and refs are uvarints (int32 fields as their uint32 bits).
//   - IDs: the arena's ID column — every bucket point's ID, leaves in
//     node order.
//   - coordinates: the arena's coordinate block, raw, in one write.
//   - remote: the refs of the remote-box cache.
//
// No box is written: each is a function of the points below it, and
// ReadSnapshot rebuilds them all. A partition whose arena is not in the
// snapshot layout (see PartitionSnapshot) is an error.
func WriteSnapshot(w *column.Writer, s *TreeSnapshot) error {
	w.Varint(s.Size)
	w.Uvarint(uint64(len(s.Parts)))
	w.End()
	for pi := range s.Parts {
		ps := &s.Parts[pi]
		if err := ps.layout(s.Dim); err != nil {
			return fmt.Errorf("core: snapshot partition %d: %v", pi, err)
		}
		ps.appendColumns(&w.Appender, w.End)
	}
	return nil
}

// appendColumns appends the partition's four column bodies to a,
// calling end after each one: the file frames each as a column, a
// partition message as a block (appendState).
func (ps *PartitionSnapshot) appendColumns(a *column.Appender, end func()) {
	a.Uvarint(uint64(ps.Points))
	a.Uvarint(uint64(len(ps.Nodes)))
	for i := range ps.Nodes {
		n := &ps.Nodes[i]
		var state byte
		if n.Leaf {
			state |= stateLeaf
		}
		if n.Moved {
			state |= stateMoved
		}
		a.Byte(state)
		switch {
		case n.Moved:
			appendRef(a, n.Fwd)
		case n.Leaf:
			a.Uvarint(uint64(len(n.Slots)))
		default:
			a.Uvarint(uint64(uint32(n.SplitDim)))
			a.Float(n.SplitVal)
			appendRef(a, n.Left)
			appendRef(a, n.Right)
		}
	}
	end()
	for _, id := range ps.IDs {
		a.Uvarint(id)
	}
	end()
	a.Floats(ps.Coords)
	end()
	a.Uvarint(uint64(len(ps.Remote)))
	for _, e := range ps.Remote {
		appendRef(a, e.Ref)
	}
	end()
}

// layout checks that the partition's arena has the shape of its
// columns: blocks of dimension dim, and the slots of its leaves running
// through them in node order, covering them; no other node holds any.
func (ps *PartitionSnapshot) layout(dim int) error {
	if ps.Dim != dim || len(ps.Coords) != dim*len(ps.IDs) || len(ps.Boxes) != 2*dim*len(ps.Nodes) {
		return fmt.Errorf("blocks of %d coordinate and %d box floats for %d points and %d nodes of dimension %d, want %d",
			len(ps.Coords), len(ps.Boxes), len(ps.IDs), len(ps.Nodes), ps.Dim, dim)
	}
	next := 0
	for i := range ps.Nodes {
		n := &ps.Nodes[i]
		if len(n.Slots) > 0 && (!n.Leaf || n.Moved) {
			return fmt.Errorf("node %d: a bucket outside a leaf", i)
		}
		for _, s := range n.Slots {
			if int(s) != next {
				return fmt.Errorf("node %d: bucket point %d in slot %d", i, next, s)
			}
			next++
		}
	}
	if next != len(ps.IDs) {
		return fmt.Errorf("%d points in the blocks, %d in buckets", len(ps.IDs), next)
	}
	return nil
}

func appendRef(a *column.Appender, r kdtree.Ref) {
	a.Uvarint(uint64(uint32(r.Part)))
	a.Uvarint(uint64(uint32(r.Node)))
}

func readRef(d *column.Decoder) kdtree.Ref {
	return kdtree.Ref{Part: int32(d.Uint32()), Node: int32(d.Uint32())}
}

// maxPartitionPoints bounds the bucket lengths a node column may claim,
// so their sum cannot overflow before it is checked against the ID
// column.
const maxPartitionPoints = math.MaxInt32

// ReadSnapshot reads the columns WriteSnapshot wrote, for points of
// dimension dim, and rebuilds every box: leaf boxes from their buckets,
// routing boxes bottom-up (coverRouting), remote-cache boxes from their
// target nodes. Malformed columns return ErrSnapshotCorrupt; the
// structure is not yet validated, and a tree whose boxes cannot be
// rebuilt right is one Validate rejects.
func ReadSnapshot(r *column.Reader, dim int) (*TreeSnapshot, error) {
	if dim < 1 || dim > MaxSnapshotDim {
		return nil, corrupt("dimension %d out of range", dim)
	}
	s := &TreeSnapshot{Format: SnapshotFormat, Dim: dim}
	if err := r.Next(); err != nil {
		return nil, corrupt("%v", err)
	}
	s.Size = r.Varint()
	parts := r.Uvarint()
	if err := r.End(); err != nil {
		return nil, corrupt("%v", err)
	}
	if parts > maxSnapshotParts {
		return nil, corrupt("%d partitions out of range", parts)
	}
	next := func() (*column.Decoder, error) { return &r.Decoder, r.Next() }
	for pi := range int(parts) {
		ps, err := readColumns(dim, next)
		if err != nil {
			return nil, corrupt("partition %d: %v", pi, err)
		}
		ps.Self = int32(pi)
		ps.fitLeaves()
		s.Parts = append(s.Parts, ps)
	}
	arenas := make([]*kdtree.Arena, len(s.Parts))
	for pi := range s.Parts {
		arenas[pi] = &s.Parts[pi].Arena
	}
	coverRouting(arenas, func(kdtree.Ref) (lo, hi []float64) { return nil, nil })
	for pi := range s.Parts {
		for i := range s.Parts[pi].Remote {
			e := &s.Parts[pi].Remote[i]
			if s.node(e.Ref) != nil {
				lo, hi := s.Parts[e.Ref.Part].Box(e.Ref.Node)
				e.Lo, e.Hi = slices.Clone(lo), slices.Clone(hi)
			}
		}
	}
	return s, nil
}

// readColumns reads the four column bodies appendColumns wrote, each
// from the decoder next opens for it, into an arena of dimension dim in
// the snapshot layout — the ID column and the coordinate block read in
// place, every leaf's slots carved from one array — and no boxes yet
// (fitLeaves). Each body must be read to its end, and an empty one
// decodes as nil.
func readColumns(dim int, next func() (*column.Decoder, error)) (PartitionSnapshot, error) {
	ps := PartitionSnapshot{Arena: kdtree.Arena{Dim: dim}}
	d, err := next()
	if err != nil {
		return ps, err
	}
	ps.Points = int(d.Uvarint())
	var sizes []int
	if n := d.Count(2); n > 0 { // a leaf takes two bytes, anything else more
		ps.Nodes, sizes = make([]kdtree.Node, n), make([]int, n)
	}
	total := 0
	for i := range ps.Nodes {
		n := &ps.Nodes[i]
		state := d.Byte()
		if state&^(stateLeaf|stateMoved) != 0 {
			return ps, fmt.Errorf("node %d: state %#x", i, state)
		}
		n.Leaf, n.Moved = state&stateLeaf != 0, state&stateMoved != 0
		switch {
		case n.Moved:
			n.Fwd = readRef(d)
		case n.Leaf:
			k := d.Uvarint()
			if k > uint64(maxPartitionPoints-total) {
				return ps, fmt.Errorf("node %d: bucket of %d points after %d", i, k, total)
			}
			sizes[i] = int(k)
			total += int(k)
		default:
			n.SplitDim = int32(d.Uint32())
			n.SplitVal = d.Float()
			n.Left = readRef(d)
			n.Right = readRef(d)
		}
	}
	if err := d.End(); err != nil {
		return ps, err
	}

	if d, err = next(); err != nil {
		return ps, err
	}
	if total > d.Len() { // every ID takes a byte at least
		return ps, fmt.Errorf("%d bucket points, %d ID bytes", total, d.Len())
	}
	if total > 0 {
		ps.IDs = make([]uint64, total)
	}
	for i := range ps.IDs {
		ps.IDs[i] = d.Uvarint()
	}
	if err := d.End(); err != nil {
		return ps, err
	}

	if d, err = next(); err != nil {
		return ps, err
	}
	if d.Len() != 8*dim*total {
		return ps, fmt.Errorf("coordinate block of %d bytes for %d points of dimension %d", d.Len(), total, dim)
	}
	if n := dim * total; n > 0 {
		ps.Coords = make([]float64, n)
		d.Floats(ps.Coords)
	}
	if err := d.End(); err != nil {
		return ps, err
	}
	slots := make([]int32, total)
	for i := range slots {
		slots[i] = int32(i)
	}
	for i, k := range sizes {
		if k > 0 {
			ps.Nodes[i].Slots, slots = slots[:k:k], slots[k:]
		}
	}

	if d, err = next(); err != nil {
		return ps, err
	}
	if k := d.Count(2); k > 0 { // a ref takes two bytes at least
		ps.Remote = make([]RemoteBox, k)
		for i := range ps.Remote {
			ps.Remote[i].Ref = readRef(d)
		}
	}
	return ps, d.End()
}

// fitLeaves gives every node of a decoded arena an empty box and every
// leaf the box of its bucket, from which coverRouting builds the rest.
func (ps *PartitionSnapshot) fitLeaves() {
	if len(ps.Nodes) == 0 {
		return
	}
	ps.EmptyBoxes()
	for i := range ps.Nodes {
		if len(ps.Nodes[i].Slots) > 0 {
			ps.FitBox(int32(i))
		}
	}
}

// node returns the node ref names, or nil when ref is out of range.
func (s *TreeSnapshot) node(ref kdtree.Ref) *kdtree.Node {
	if ref.Part < 0 || int(ref.Part) >= len(s.Parts) || ref.Node < 0 || int(ref.Node) >= len(s.Parts[ref.Part].Nodes) {
		return nil
	}
	return &s.Parts[ref.Part].Nodes[ref.Node]
}

// box returns the box of the node ref names (nil for an empty subtree).
func (s *TreeSnapshot) box(ref kdtree.Ref) (lo, hi []float64) {
	return s.Parts[ref.Part].Box(ref.Node)
}

// coverRouting sets every routing node's box to the union of its
// children's, in iterative post-order walks from every node of arenas:
// how a snapshot or a partition message gets the routing boxes it does
// not carry, once its leaves have theirs (fitLeaves). A child is a node
// of the arena whose Self is its Part, or — out of every arena's range —
// a ref whose box is outside's. No node is walked twice, so the walks
// terminate on any input; a tree they cannot box correctly is one
// Validate rejects.
func coverRouting(arenas []*kdtree.Arena, outside func(kdtree.Ref) (lo, hi []float64)) {
	index := make(map[int32]int, len(arenas)) // an arena's position, by its Self
	seen := make([][]bool, len(arenas))
	for i, a := range arenas {
		index[a.Self] = i
		seen[i] = make([]bool, len(a.Nodes))
	}
	held := func(r kdtree.Ref) (int, bool) { // the position of the arena holding r's node
		i, ok := index[r.Part]
		return i, ok && r.Node >= 0 && int(r.Node) < len(arenas[i].Nodes)
	}
	type frame struct {
		arena int
		node  int32
		exit  bool
	}
	var stack []frame
	push := func(i int, node int32) {
		if !seen[i][node] {
			seen[i][node] = true
			stack = append(stack, frame{arena: i, node: node})
		}
	}
	for i := range arenas {
		for root := range arenas[i].Nodes {
			push(i, int32(root))
			for len(stack) > 0 {
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				a := arenas[f.arena]
				switch n := &a.Nodes[f.node]; {
				case n.Leaf || n.Moved:
				case f.exit:
					for _, c := range [2]kdtree.Ref{n.Left, n.Right} {
						var lo, hi []float64
						if j, ok := held(c); ok {
							lo, hi = arenas[j].Box(c.Node)
						} else {
							lo, hi = outside(c)
						}
						a.CoverBox(f.node, lo, hi)
					}
				default:
					stack = append(stack, frame{arena: f.arena, node: f.node, exit: true})
					for _, c := range [2]kdtree.Ref{n.Left, n.Right} {
						if j, ok := held(c); ok {
							push(j, c.Node)
						}
					}
				}
			}
		}
	}
}

// corrupt builds an ErrSnapshotCorrupt violation report.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// Validate checks the snapshot's structural invariants — the same ones
// a live tree maintains — and returns ErrSnapshotCorrupt on any
// violation: unknown format, arenas not in the snapshot layout,
// out-of-range references, nodes in an impossible state, a reachable
// graph that is not a strict tree, point-count mismatches, or boxes
// that are not exactly the box of the points below them. The walk is
// iterative: adversarial input cannot overflow the stack.
func (s *TreeSnapshot) Validate() error {
	if s.Format != SnapshotFormat {
		return corrupt("format %d, want %d", s.Format, SnapshotFormat)
	}
	if s.Dim < 1 || s.Dim > MaxSnapshotDim {
		return corrupt("dimension %d out of range", s.Dim)
	}
	if len(s.Parts) < 1 || len(s.Parts) > maxSnapshotParts {
		return corrupt("%d partitions out of range", len(s.Parts))
	}
	if len(s.Parts[0].Nodes) == 0 {
		return corrupt("root partition has no nodes")
	}
	refOK := func(r kdtree.Ref) bool {
		return s.node(r) != nil
	}
	lo, hi := make([]float64, s.Dim), make([]float64, s.Dim) // a leaf's box, recomputed
	total := int64(0)
	for pi := range s.Parts {
		ps := &s.Parts[pi]
		if ps.Points < 0 {
			return corrupt("partition %d: negative point count", pi)
		}
		if err := ps.layout(s.Dim); err != nil {
			return corrupt("partition %d: %v", pi, err)
		}
		local := 0
		for ni := range ps.Nodes {
			n := &ps.Nodes[ni]
			if n.Leaf && n.Moved {
				return corrupt("partition %d node %d: leaf and tombstone at once", pi, ni)
			}
			blo, bhi := ps.Box(int32(ni))
			switch {
			case n.Moved:
				if blo != nil {
					return corrupt("partition %d node %d: tombstone carries data", pi, ni)
				}
				if !refOK(n.Fwd) {
					return corrupt("partition %d node %d: dangling forward", pi, ni)
				}
			case n.Leaf:
				clearBox(lo, hi)
				for _, sl := range n.Slots {
					kdtree.ExpandBox(lo, hi, ps.Point(sl).Coords)
				}
				if !boxEqual(lo, hi, blo, bhi) {
					return corrupt("partition %d node %d: leaf box not exact", pi, ni)
				}
				local += len(n.Slots)
			default:
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
			if len(e.Lo) != s.Dim || len(e.Hi) != s.Dim {
				return corrupt("partition %d remote entry %d: malformed box", pi, ei)
			}
			if tlo, thi := s.box(e.Ref); !boxEqual(e.Lo, e.Hi, tlo, thi) {
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
	lo, hi := make([]float64, s.Dim), make([]float64, s.Dim) // a routing node's box, recomputed
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
			clearBox(lo, hi)
			for _, c := range [2]kdtree.Ref{n.Left, n.Right} {
				clo, chi := s.box(c)
				kdtree.UnionBox(lo, hi, clo, chi)
			}
			if nlo, nhi := s.box(f.ref); !boxEqual(lo, hi, nlo, nhi) {
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

// clearBox makes the scratch box [lo, hi] empty, ready to grow.
func clearBox(lo, hi []float64) {
	for d := range lo {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
}

// boxEqual reports exact equality of two boxes; an empty box (nil, or
// a scratch box grown by nothing) equals only another.
func boxEqual(alo, ahi, blo, bhi []float64) bool {
	aEmpty, bEmpty := len(alo) == 0 || alo[0] > ahi[0], len(blo) == 0 || blo[0] > bhi[0]
	if aEmpty || bEmpty {
		return aEmpty == bEmpty
	}
	if len(alo) != len(blo) || len(ahi) != len(alo) || len(bhi) != len(blo) {
		return false
	}
	for d := range alo {
		if alo[d] != blo[d] || ahi[d] != bhi[d] {
			return false
		}
	}
	return true
}
