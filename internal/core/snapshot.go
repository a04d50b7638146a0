package core

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"semtree/internal/cluster"
	"semtree/internal/column"
	"semtree/internal/kdtree"
)

// Partition snapshot persistence: the distributed tree's whole layout —
// every partition's arena, links to the subtrees other partitions hold
// included — serialized so a fleet restarts without re-ingesting. A
// snapshot's arena has the shape of its columns: its blocks hold the
// points its leaves hold, leaves in node order (kdtree.Arena.Clone), so
// the encoding (EncodeSnapshot) writes the ID column and the coordinate
// block as they stand, and decoding reads them back in place. Nodes are
// written too, but no box: every box is a function of the points below
// it — a link's of the points of the subtree it leads to — and decoding
// rebuilds them (FitBoxes); nor a split value that is the top of its
// left child's box, which decoding sets from that box (fitRouting). A
// partition message carries an arena in the same columns (appendState,
// in messages.go), every split value raw, with its links' boxes: a
// single arena cannot rebuild those. An index snapshot writes the same
// columns but the coordinate block (WriteSnapshot): its points are a
// function of the triples it stores, which it projects again on load.
// RestoreTree fits every box itself, so a snapshot's boxes are never
// read: the restored partitions hold the same arenas with exact boxes,
// every traversal takes the same path, and query results are
// byte-identical to the pre-save tree (the invariant the snapshot tests
// assert).
//
// Snapshots address partitions by ordinal (their position in the
// tree's partition list), never by fabric NodeID: a restore lands on a
// fresh fabric whose IDs need not match. Taking a snapshot requires
// quiescence — no concurrent inserts or bulk loads — like Rebalance.
//
// Restore trusts nothing, and checks each thing once: FitBoxes the
// snapshot layout of every arena, Validate the graph joining them, and
// the partition adopting an arena the arena (handleRestore); RestoreTree
// reports every violation as ErrSnapshotCorrupt, never a panic. No
// point count is stored beside an arena: a partition's count is its
// bucket total (bucketPoints), and the counts the columns carry are
// refused when they disagree with it.

// ErrSnapshotCorrupt reports snapshot bytes or structure that cannot be
// restored: truncated or garbled encodings, unknown format versions,
// and structural violations (bad references, inconsistent counts).
// Test with errors.Is.
var ErrSnapshotCorrupt = errors.New("core: snapshot corrupt")

// SnapshotFormat is the version of the partition snapshot encoding,
// the header version of an EncodeSnapshot stream. Format 1 was a gob
// stream with every box stored; 2 was WriteSnapshot's columns with a
// column of the remote-box cache's refs per partition; 3 dropped that
// column, the links being nodes; 4 writes a routing node's children as
// offsets from it, with no partition, and the ID column as differences;
// 5 leaves out a split value at the top of its left child's box and
// Rice-codes the ID column. Decoders accept exactly this version;
// anything else is corrupt (the facade's index snapshot carries its own
// header version and embeds the columns only).
const SnapshotFormat = 5

// Validation bounds: a snapshot claiming more is corrupt by fiat long
// before any allocation happens. MaxSnapshotDim also bounds the
// dimension in an index snapshot's header.
const (
	maxSnapshotParts = 1 << 16
	MaxSnapshotDim   = 1 << 12
)

// TreeSnapshot is the whole distributed tree, partition ordinal 0
// holding the tree root at node 0. A part is one partition's state, its
// arena: every node in exactly one of the kdtree.Node states, its box
// the exact logical-subtree box, and the blocks holding the bucket
// points leaf by leaf in node order (kdtree.Arena.Clone). Its Self and
// the Part of every reference in it are partition ordinals (Parts
// indices) at rest, and fabric NodeIDs in the messages partitions
// produce and consume; the client translates at the edge (mapRefs, and
// Self beside it).
type TreeSnapshot struct {
	Dim   int
	Parts []kdtree.Arena
	// leftOut marks, per node of each part read from a node column, the
	// routing nodes it wrote at the top of their left child's box, with
	// no split value: their SplitVal is known once the boxes are fitted
	// (FitBoxes), which clears it. nil for a snapshot not read.
	leftOut [][]bool
}

// Len returns the number of points the snapshot's leaves hold.
func (s *TreeSnapshot) Len() int64 {
	var n int64
	for pi := range s.Parts {
		n += int64(bucketPoints(&s.Parts[pi]))
	}
	return n
}

// mapRefs rewrites the Part of every live reference in arena a — links
// and routing children — through part.
func mapRefs(a *kdtree.Arena, part func(int32) (int32, error)) (err error) {
	remap := func(r *kdtree.Ref) {
		if err == nil {
			r.Part, err = part(r.Part)
		}
	}
	for i := range a.Nodes {
		switch n := &a.Nodes[i]; {
		case n.Moved:
			remap(&n.Fwd)
		case !n.Leaf:
			remap(&n.Left)
			remap(&n.Right)
		}
	}
	return err
}

// walk visits every node of the logical subtree rooted at root in
// preorder — a routing node's left subtree before its right, a link
// followed to the node it leads to — calling visit with the node's ref
// and depth (root 1, a routing child one deeper, a link no level). A
// reference to a node the snapshot does not have — a link into a
// partition a failed load's undo reset — stops it with
// ErrSnapshotCorrupt, and so does visit's error. Its stack is its own,
// so no depth overflows the goroutine's; on a graph that is not a tree
// visit must stop it (Validate).
func (s *TreeSnapshot) walk(root kdtree.Ref, visit func(ref kdtree.Ref, n *kdtree.Node, depth int) error) error {
	type step struct {
		ref   kdtree.Ref
		depth int
	}
	stack := []step{{root, 1}}
	for len(stack) > 0 {
		at := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := s.node(at.ref)
		if n == nil {
			return corrupt("dangling reference to partition %d node %d", at.ref.Part, at.ref.Node)
		}
		if err := visit(at.ref, n, at.depth); err != nil {
			return err
		}
		switch {
		case n.Moved:
			stack = append(stack, step{n.Fwd, at.depth})
		case !n.Leaf:
			stack = append(stack, step{n.Right, at.depth + 1}, step{n.Left, at.depth + 1})
		}
	}
	return nil
}

// pointsUnder gathers the points of the logical subtree rooted at ref,
// bucket by bucket in walk order, as views of the snapshot's blocks.
func (s *TreeSnapshot) pointsUnder(ref kdtree.Ref) ([]kdtree.Point, error) {
	var pts []kdtree.Point
	err := s.walk(ref, func(r kdtree.Ref, n *kdtree.Node, _ int) error {
		if n.Leaf {
			pts = s.Parts[r.Part].AppendBucket(pts, r.Node)
		}
		return nil
	})
	return pts, err
}

// handleSnapshot deep-copies the partition's state under the read lock:
// its arena in the snapshot layout (kdtree.Arena.Clone, a handful of
// allocations whatever its size).
func (p *partition) handleSnapshot() (any, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return snapshotResp{State: p.Clone()}, nil
}

// handleRestore replaces the partition's state wholesale under the
// write lock. The arena adopts the request's (kdtree.Arena.Restore):
// its node table and box block are the partition's from then on, and
// its point blocks and slot arrays, which an in-process request shares
// with the client's snapshot, are only ever appended to or replaced.
// It is a restore's one check of the arena: a state the kernel rejects
// (kdtree.Arena.Fit), or one linking up the partition DAG or to a
// partition the tree does not have, is refused, which RestoreTree
// reports as a corrupt snapshot. The partition's count is then the
// bucket total of the arena it adopted.
func (p *partition) handleRestore(r restoreReq) (any, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	err := cmp.Or(linksDown(&r.State, p.Self), p.t.linksHosted(&r.State))
	if err == nil {
		err = p.Restore(&r.State)
	}
	if err != nil {
		return nil, p.refuse("restore: %v", err)
	}
	p.addPoints(bucketPoints(&p.Arena) - p.points)
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
	snap := &TreeSnapshot{Dim: t.cfg.Dim}
	for i, p := range parts {
		resp, err := t.call(cluster.ClientID, p.id, snapshotReq{})
		if err != nil {
			return nil, err
		}
		a := resp.(snapshotResp).State
		if err := mapRefs(&a, toOrdinal); err != nil {
			return nil, err
		}
		a.Self = int32(i)
		snap.Parts = append(snap.Parts, a)
	}
	return snap, nil
}

// RestoreTree reconstructs a tree from a snapshot on a fresh set of
// partitions. cfg.Dim is taken from the snapshot and cfg.MaxPartitions
// is raised to the snapshot's partition count when lower (the snapshot
// describes a fleet that already exists; the budget only limits future
// growth). The snapshot's boxes are not read: every box of the restored
// tree is fitted to the points below it (FitBoxes, on a copy), so the
// snapshot of a tree whose boxes a lost write left wider than its points
// restores exact, and one read without boxes (ReadSnapshot) needs no
// fitting first: the split values its node column left out are set
// from the fitted boxes, in the copy. Malformed input returns
// ErrSnapshotCorrupt, checked once: by FitBoxes, Validate and each
// partition adopting its arena (handleRestore). The restored tree
// answers every query byte-identically to the tree the snapshot was
// taken from. The snapshot stays the caller's, unmodified.
func RestoreTree(cfg Config, snap *TreeSnapshot) (*Tree, error) {
	if err := snap.validHeader(); err != nil {
		return nil, err
	}
	fitted := *snap
	fitted.Parts = slices.Clone(snap.Parts)
	for i := range fitted.Parts {
		// FitBoxes gives each part a box block of its own and sets the
		// split values a snapshot read from a file leaves out, in a copy
		// of the node table, which the partition adopts with the box
		// block; the point blocks and slot arrays stay shared with snap,
		// and the partition never writes them in place
		// (kdtree.Arena.Restore).
		fitted.Parts[i].Nodes = slices.Clone(snap.Parts[i].Nodes)
	}
	if err := fitted.FitBoxes(); err != nil {
		return nil, err
	}
	if err := fitted.Validate(); err != nil {
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
	for i, a := range fitted.Parts {
		_ = mapRefs(&a, toID)
		a.Self = int32(ids[i])
		if _, err := t.call(cluster.ClientID, ids[i], restoreReq{State: a}); err != nil {
			t.Close()
			if errors.Is(err, ErrRequestRefused) {
				return nil, corrupt("partition %d: %v", i, err)
			}
			return nil, fmt.Errorf("core: restore partition %d: %w", i, err)
		}
	}
	return t, nil
}

// EncodeSnapshot writes the snapshot to w as a column stream: the
// header (version SnapshotFormat, the dimension), then the tree's
// columns, every partition's coordinate block among them.
func EncodeSnapshot(w io.Writer, s *TreeSnapshot) error {
	cw := column.NewWriter(w)
	cw.Header(SnapshotFormat, uint32(s.Dim))
	if err := writeTree(cw, s, true); err != nil {
		return err
	}
	return cw.Flush()
}

// DecodeSnapshot reads a stream EncodeSnapshot wrote and rebuilds every
// box and the split values the stream left out (FitBoxes). Truncated or garbled input and any format but
// SnapshotFormat return ErrSnapshotCorrupt; the result is not yet
// structurally validated (RestoreTree does that).
func DecodeSnapshot(r io.Reader) (*TreeSnapshot, error) {
	cr := column.NewReader(r)
	format, dim, err := cr.Header()
	if err != nil {
		return nil, corrupt("%v", err)
	}
	if format != SnapshotFormat {
		return nil, corrupt("format %d, want %d", format, SnapshotFormat)
	}
	s, err := readTree(cr, int(dim), true)
	if err != nil {
		return nil, err
	}
	if err := s.FitBoxes(); err != nil {
		return nil, err
	}
	return s, nil
}

// Node states in the node column: a bit each for kdtree.Node's Leaf
// and Moved, one for a routing node split at the top of its left
// child's box, whose SplitVal is not written, and one for a leaf whose
// bucket IDs never fall, whose gaps are written plain.
const (
	stateLeaf      byte = 1
	stateMoved     byte = 2
	stateLeftMax   byte = 4
	stateAscending byte = 8
)

// WriteSnapshot writes the tree's columns without a header and without
// a coordinate block: the caller's header carries the dimension, and
// the caller owns what the points are a function of (an index
// snapshot, its triples and pivots). ReadSnapshot reads them back.
func WriteSnapshot(w *column.Writer, s *TreeSnapshot) error {
	return writeTree(w, s, false)
}

// writeTree writes the tree's columns, without a header. The first
// column holds the tree's point count (Len) and the partition count;
// then each partition writes three, or two without coords:
//
//   - nodes: its bucket total, the node count, and per node its state byte
//     followed by, for a link, Fwd; for a leaf, its bucket length;
//     for a routing node, SplitDim, SplitVal (raw) and both children.
//     A routing node whose SplitVal is, to the bit, the top of its
//     left child's box in SplitDim — the box a reader fits, a link's
//     being its far subtree's — is marked stateLeftMax and writes no
//     SplitVal: the reader sets it from that box once it has fitted
//     the boxes (coverRouting). Every bulk, chain and graft build
//     splits there, SplitLeaf's midpoint fallback does not. A routing
//     child is a node of the arena (kdtree.Arena.Fit), so it is written
//     as its index less its parent's, a zigzag varint, with no Part.
//     Counts and Fwd are uvarints (int32 fields as their uint32 bits).
//   - IDs: the arena's ID column — every bucket point's ID, leaves in
//     node order — as Rice codes under one parameter (a byte), packed
//     (column.BitWriter). A leaf codes its first ID, then each later
//     one's gap from the one before: plain when its bucket never falls
//     (stateAscending), as a bulk build fills it, and zigzagged
//     otherwise (IDs wrap), so any order decodes. The parameter is the
//     one column.RiceParam picks from the codes' count and sum.
//   - coordinates, with coords: the arena's coordinate block, raw, in
//     one write.
//
// No box is written: each is a function of the points below it, and
// FitBoxes rebuilds them all. A partition whose arena is not in the
// snapshot layout (see TreeSnapshot), or a snapshot whose split values
// are not yet fitted, is an error.
func writeTree(w *column.Writer, s *TreeSnapshot, coords bool) error {
	for pi := range s.Parts {
		if err := layout(&s.Parts[pi], s.Dim); err != nil {
			return fmt.Errorf("core: snapshot partition %d: %v", pi, err)
		}
	}
	if s.leftOut != nil {
		return errors.New("core: snapshot split values not yet fitted (FitBoxes)")
	}
	fit := s.readerBoxes()
	w.Varint(s.Len())
	w.Uvarint(uint64(len(s.Parts)))
	w.End()
	for pi := range s.Parts {
		appendColumns(&w.Appender, &s.Parts[pi], w.End, coords, &fit[pi])
	}
	return nil
}

// readerBoxes returns an arena per partition holding the boxes a reader
// of the snapshot's columns fits (FitBoxes) in a box block of its own,
// everything else shared with the partition's: what its node column
// decides which split values to leave out against.
func (s *TreeSnapshot) readerBoxes() []kdtree.Arena {
	fit := make([]kdtree.Arena, len(s.Parts))
	arenas := make([]*kdtree.Arena, len(s.Parts))
	for pi := range s.Parts {
		fit[pi] = s.Parts[pi]
		fitLeaves(&fit[pi])
		arenas[pi] = &fit[pi]
	}
	coverRouting(arenas)
	return fit
}

// appendColumns appends arena s's three column bodies to a, in
// writeTree's layout — two without coords, which leaves the coordinate
// block out — calling end after each one: the file frames each as a
// column, a partition message as a block (appendState). fit holds the
// boxes the reader will fit, node for node (readerBoxes); a message
// passes nil, and writes every split value raw. Every routing child
// must be a node of the arena (layout checks it for the file; a
// partition's own arenas and fragments hold no other): its Part is not
// written.
func appendColumns(a *column.Appender, s *kdtree.Arena, end func(), coords bool, fit *kdtree.Arena) {
	a.Uvarint(uint64(bucketPoints(s)))
	a.Uvarint(uint64(len(s.Nodes)))
	for i := range s.Nodes {
		n := &s.Nodes[i]
		state := nodeState(s, fit, n)
		a.Byte(state)
		switch {
		case n.Moved:
			appendRef(a, n.Fwd)
		case n.Leaf:
			a.Uvarint(uint64(len(n.Slots)))
		default:
			a.Uvarint(uint64(uint32(n.SplitDim)))
			if state&stateLeftMax == 0 {
				a.Float(n.SplitVal)
			}
			a.Varint(int64(n.Left.Node) - int64(i))
			a.Varint(int64(n.Right.Node) - int64(i))
		}
	}
	end()
	var param column.RiceParam
	idCodes(s, param.Add)
	k := param.K()
	a.Byte(byte(k))
	ids := column.BitWriter{A: a}
	idCodes(s, func(v uint64) { ids.Rice(v, k) })
	ids.Flush()
	end()
	if coords {
		a.Floats(s.Coords)
		end()
	}
}

// nodeState returns the state byte of node n of arena s; fit holds the
// boxes its reader will fit, and with none no split is marked
// stateLeftMax.
func nodeState(s, fit *kdtree.Arena, n *kdtree.Node) byte {
	var state byte
	if n.Leaf {
		state |= stateLeaf
	}
	if n.Moved {
		state |= stateMoved
	}
	switch {
	case n.Moved:
	case n.Leaf:
		if ascending(s.IDs, n.Slots) {
			state |= stateAscending
		}
	case fit == nil:
	default:
		if top, ok := leftTop(fit, n); ok && math.Float64bits(top) == math.Float64bits(n.SplitVal) {
			state |= stateLeftMax
		}
	}
	return state
}

// leftTop returns the top, in n's split dimension, of the box of
// routing node n's left child in arena a; ok is false when that box is
// empty or the child or the dimension is out of a's range.
func leftTop(a *kdtree.Arena, n *kdtree.Node) (top float64, ok bool) {
	if l, d := n.Left.Node, n.SplitDim; l >= 0 && int(l) < len(a.Nodes) && d >= 0 && int(d) < a.Dim {
		if _, hi := a.Box(l); hi != nil {
			return hi[d], true
		}
	}
	return 0, false
}

// ascending reports whether the IDs of the bucket slots never fall.
func ascending(ids []uint64, slots []int32) bool {
	for j := 1; j < len(slots); j++ {
		if ids[slots[j]] < ids[slots[j-1]] {
			return false
		}
	}
	return true
}

// idCodes calls code with the value of every Rice code of arena s's ID
// column, leaves in node order: a bucket's first ID, then each later
// ID's gap from the one before, plain in an ascending bucket and
// zigzagged in any other.
func idCodes(s *kdtree.Arena, code func(v uint64)) {
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if !n.Leaf || n.Moved || len(n.Slots) == 0 {
			continue
		}
		plain := ascending(s.IDs, n.Slots)
		prev := s.IDs[n.Slots[0]]
		code(prev)
		for _, slot := range n.Slots[1:] {
			gap := s.IDs[slot] - prev
			if !plain {
				gap = gap<<1 ^ uint64(int64(gap)>>63)
			}
			code(gap)
			prev = s.IDs[slot]
		}
	}
}

// layout checks that arena s has the shape of its columns: a
// coordinate block of dimension dim, the slots of its leaves running
// through it in node order, covering it, and no other node holding any;
// and every routing child a node of the arena, whose Part the node
// column does not write. The box block is not its columns' business.
func layout(s *kdtree.Arena, dim int) error {
	if s.Dim != dim || len(s.Coords) != dim*len(s.IDs) {
		return fmt.Errorf("a coordinate block of %d floats for %d points of dimension %d, want %d",
			len(s.Coords), len(s.IDs), s.Dim, dim)
	}
	next := 0
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if len(n.Slots) > 0 && (!n.Leaf || n.Moved) {
			return fmt.Errorf("node %d: a bucket outside a leaf", i)
		}
		if !n.Leaf && !n.Moved && (!s.IsLocal(n.Left) || !s.IsLocal(n.Right)) {
			return fmt.Errorf("node %d: a routing child in partition %d or %d leaves the arena", i, n.Left.Part, n.Right.Part)
		}
		for _, slot := range n.Slots {
			if int(slot) != next {
				return fmt.Errorf("node %d: bucket point %d in slot %d", i, next, slot)
			}
			next++
		}
	}
	if next != len(s.IDs) {
		return fmt.Errorf("%d points in the blocks, %d in buckets", len(s.IDs), next)
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

// readChild reads a routing child of node i of the arena self names,
// which appendColumns wrote as its offset from i.
func readChild(d *column.Decoder, self int32, i int) kdtree.Ref {
	return kdtree.Ref{Part: self, Node: int32(i) + d.Int32()}
}

// maxPartitionPoints bounds the bucket lengths a node column may claim,
// so their sum cannot overflow before it is checked against the ID
// column.
const maxPartitionPoints = math.MaxInt32

// ReadSnapshot reads the columns WriteSnapshot wrote, for points of
// dimension dim: every partition's nodes and ID column, with no
// coordinate block, no box, and no split value where the node column
// left it out for its left child's box to give. The caller supplies
// each partition's block (Coords, dim floats per ID, in ID-column
// order); RestoreTree then fits the boxes and sets those split values.
// Malformed columns return ErrSnapshotCorrupt; the structure is not yet
// validated.
func ReadSnapshot(r *column.Reader, dim int) (*TreeSnapshot, error) {
	return readTree(r, dim, false)
}

// readTree reads the columns writeTree wrote, with or without
// coordinate blocks as coords says.
func readTree(r *column.Reader, dim int, coords bool) (*TreeSnapshot, error) {
	if dim < 1 || dim > MaxSnapshotDim {
		return nil, corrupt("dimension %d out of range", dim)
	}
	s := &TreeSnapshot{Dim: dim}
	if err := r.Next(); err != nil {
		return nil, corrupt("%v", err)
	}
	size := r.Varint()
	parts := r.Uvarint()
	if err := r.End(); err != nil {
		return nil, corrupt("%v", err)
	}
	if parts > maxSnapshotParts {
		return nil, corrupt("%d partitions out of range", parts)
	}
	next := func() (*column.Decoder, error) { return &r.Decoder, r.Next() }
	for pi := range int(parts) {
		a, leftOut, err := readColumns(dim, int32(pi), next, coords)
		if err != nil {
			return nil, corrupt("partition %d: %v", pi, err)
		}
		s.Parts = append(s.Parts, a)
		s.leftOut = append(s.leftOut, leftOut)
	}
	if n := s.Len(); n != size {
		return nil, corrupt("%d bucket points across partitions, the tree column says %d", n, size)
	}
	return s, nil
}

// FitBoxes gives every partition a fresh box block fitted to its points,
// once every partition holds its coordinate block: leaf boxes from their
// buckets, then routing boxes and link boxes bottom-up — a link's from
// the subtree it leads to — and the split values the node columns left
// out (fitRouting). A partition not in the snapshot layout, or a split
// value left out whose box cannot give it, is ErrSnapshotCorrupt; a
// tree whose boxes cannot be fitted right is one RestoreTree refuses.
func (s *TreeSnapshot) FitBoxes() error {
	arenas := make([]*kdtree.Arena, len(s.Parts))
	for pi := range s.Parts {
		a := &s.Parts[pi]
		if err := layout(a, s.Dim); err != nil {
			return corrupt("partition %d: %v", pi, err)
		}
		fitLeaves(a)
		arenas[pi] = a
	}
	if err := fitRouting(arenas, s.leftOut); err != nil {
		return corrupt("%v", err)
	}
	s.leftOut = nil
	return nil
}

// fitRouting covers every routing and link box of arenas, whose leaves
// have their boxes (coverRouting), then sets the SplitVal of every
// routing node its node column wrote at the top of its left child's box
// (stateLeftMax, marked in leftOut, per arena read from columns) from
// that box: the one place an arena read from a file gets its boxes and
// its split values. A node so marked whose left child or split
// dimension is out of range, or whose left child's box is empty, is an
// error, and so is an unmarked one whose raw split value is that top:
// appendColumns would have marked it.
func fitRouting(arenas []*kdtree.Arena, leftOut [][]bool) error {
	coverRouting(arenas)
	for pi, marks := range leftOut {
		a := arenas[pi]
		for i, marked := range marks {
			n := &a.Nodes[i]
			if n.Leaf || n.Moved {
				continue
			}
			top, ok := leftTop(a, n)
			switch {
			case marked && !ok:
				return fmt.Errorf("partition %d node %d: split at the top of node %d's box in dimension %d, which has none",
					a.Self, i, n.Left.Node, n.SplitDim)
			case marked:
				n.SplitVal = top
			case ok && math.Float64bits(top) == math.Float64bits(n.SplitVal):
				return fmt.Errorf("partition %d node %d: split value %v written raw at its left child's top", a.Self, i, top)
			}
		}
	}
	return nil
}

// readColumns reads the column bodies appendColumns wrote — three, or
// two without coords — each from the decoder next opens for it, into
// an arena of dimension dim named self (the Part of its routing
// children) in the snapshot layout — the ID column and the coordinate
// block read in place, every leaf's slots carved from one array — and
// no boxes yet (fitLeaves), nor the split values the node column left
// out (marked in leftOut for fitRouting). Each body must be read to its
// end, and an empty one decodes as nil. The node column's count must be
// its bucket total, and its marks the ones appendColumns would write for
// its IDs: stateAscending on exactly the leaves whose buckets never
// fall, stateLeftMax on routing nodes only, and no link marked a leaf;
// a split value it writes is finite. The ID column must be what appendColumns writes: the Rice
// parameter column.RiceParam picks for its codes, no ID past 2⁶⁴ in an
// ascending bucket, and no bit after the last code.
func readColumns(dim int, self int32, next func() (*column.Decoder, error), coords bool) (a kdtree.Arena, leftOut []bool, err error) {
	a = kdtree.Arena{Dim: dim, Self: self}
	d, err := next()
	if err != nil {
		return a, nil, err
	}
	points := d.Uvarint()
	var sizes []int
	var plain []bool            // a leaf's gaps are plain (stateAscending)
	if n := d.Count(2); n > 0 { // a leaf takes two bytes, anything else more
		a.Nodes, sizes, plain, leftOut = make([]kdtree.Node, n), make([]int, n), make([]bool, n), make([]bool, n)
	}
	total := 0
	for i := range a.Nodes {
		n := &a.Nodes[i]
		state := d.Byte()
		if state&^(stateLeaf|stateMoved|stateLeftMax|stateAscending) != 0 {
			return a, nil, fmt.Errorf("node %d: state %#x", i, state)
		}
		n.Leaf, n.Moved = state&stateLeaf != 0, state&stateMoved != 0
		switch {
		case n.Moved:
			if state&(stateLeaf|stateLeftMax|stateAscending) != 0 {
				return a, nil, fmt.Errorf("node %d: a link of state %#x", i, state)
			}
			n.Fwd = readRef(d)
		case n.Leaf:
			if state&stateLeftMax != 0 {
				return a, nil, fmt.Errorf("node %d: a leaf split at its left child's top", i)
			}
			k := d.Uvarint()
			if k > uint64(maxPartitionPoints-total) {
				return a, nil, fmt.Errorf("node %d: bucket of %d points after %d", i, k, total)
			}
			sizes[i], plain[i] = int(k), state&stateAscending != 0
			total += int(k)
		default:
			if state&stateAscending != 0 {
				return a, nil, fmt.Errorf("node %d: a routing node marked ascending", i)
			}
			n.SplitDim = int32(d.Uint32())
			if leftOut[i] = state&stateLeftMax != 0; !leftOut[i] {
				if n.SplitVal = d.Float(); math.IsNaN(n.SplitVal) || math.IsInf(n.SplitVal, 0) {
					return a, nil, fmt.Errorf("node %d: split value %v", i, n.SplitVal)
				}
			}
			n.Left = readChild(d, self, i)
			n.Right = readChild(d, self, i)
		}
	}
	if err := d.End(); err != nil {
		return a, nil, err
	}
	if points != uint64(total) {
		return a, nil, fmt.Errorf("%d bucket points, the node column says %d", total, points)
	}

	if d, err = next(); err != nil {
		return a, nil, err
	}
	k := int(d.Byte())
	switch {
	case d.Err() != nil:
		return a, nil, d.Err()
	case k >= 64:
		return a, nil, fmt.Errorf("ID column under Rice parameter %d", k)
	case uint64(total)*uint64(k+1) > 8*uint64(d.Len()): // every code takes k+1 bits at least
		return a, nil, fmt.Errorf("%d bucket points of %d bits at least in %d ID bytes", total, k+1, d.Len())
	}
	if total > 0 {
		a.IDs = make([]uint64, total)
	}
	var codes column.BitDecoder
	codes.Reset(d.Rest())
	var param column.RiceParam
	at := 0
	for i, size := range sizes {
		bucket := a.IDs[at : at+size]
		for j := range bucket {
			v := codes.Rice(k)
			param.Add(v)
			switch {
			case j == 0:
				bucket[j] = v
			case plain[i]:
				if bucket[j] = bucket[j-1] + v; bucket[j] < v {
					return a, nil, fmt.Errorf("node %d: an ascending bucket's ID %d wraps past 2^64", i, j)
				}
			default:
				bucket[j] = bucket[j-1] + (v>>1 ^ -(v & 1))
			}
		}
		if err := codes.Err(); err != nil {
			return a, nil, err
		}
		if a.Nodes[i].Leaf && !a.Nodes[i].Moved && !plain[i] && slices.IsSorted(bucket) {
			return a, nil, fmt.Errorf("node %d: a bucket whose IDs never fall not marked ascending", i)
		}
		at += size
	}
	if err := codes.End(); err != nil {
		return a, nil, err
	}
	if want := param.K(); k != want {
		return a, nil, fmt.Errorf("ID column under Rice parameter %d, not %d", k, want)
	}

	if coords {
		if d, err = next(); err != nil {
			return a, nil, err
		}
		if d.Len() != 8*dim*total {
			return a, nil, fmt.Errorf("coordinate block of %d bytes for %d points of dimension %d", d.Len(), total, dim)
		}
		if n := dim * total; n > 0 {
			a.Coords = make([]float64, n)
			d.Floats(a.Coords)
		}
		if err := d.End(); err != nil {
			return a, nil, err
		}
	}
	slots := make([]int32, total)
	for i := range slots {
		slots[i] = int32(i)
	}
	for i, k := range sizes {
		if k > 0 {
			a.Nodes[i].Slots, slots = slots[:k:k], slots[k:]
		}
	}
	return a, leftOut, nil
}

// fitLeaves gives every node of an arena an empty box, in a fresh
// block, and every leaf the box of its bucket, from which coverRouting
// builds the rest.
func fitLeaves(a *kdtree.Arena) {
	if len(a.Nodes) == 0 {
		return
	}
	a.EmptyBoxes()
	for i := range a.Nodes {
		if len(a.Nodes[i].Slots) > 0 {
			a.FitBox(int32(i))
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

// coverRouting grows every routing node's box to cover its children's
// and every link's to cover the box of the node it leads to, when an
// arena holds that node: how a snapshot gets the boxes it does not
// carry, once its leaves have theirs (fitLeaves), and a partition
// message the routing boxes above its links, whose boxes it carries.
// arenas are in partition order, a child resolved to the arena whose
// Self is its Part. It is one pass, from the last arena's last node
// back to the first's: a routing child follows its parent in its arena
// (kdtree.Arena.Fit) and a link leads to a later partition (linksDown),
// so every box a node covers is whole by then. Input out of that order
// may get boxes that miss points, and is refused for its order by the
// partition that adopts it (kdtree.Arena.Fit and linksDown, in
// handleRestore and handleInstall).
func coverRouting(arenas []*kdtree.Arena) {
	index := make(map[int32]int, len(arenas)) // an arena's position, by its Self
	for i, a := range arenas {
		index[a.Self] = i
	}
	for i := len(arenas) - 1; i >= 0; i-- {
		a := arenas[i]
		for idx := int32(len(a.Nodes)) - 1; idx >= 0; idx-- {
			children, k := edges(&a.Nodes[idx])
			for _, c := range children[:k] {
				j, ok := i, a.Self == c.Part // a routing child: a node of a
				if !ok {
					j, ok = index[c.Part]
				}
				if ok && c.Node >= 0 && int(c.Node) < len(arenas[j].Nodes) {
					lo, hi := arenas[j].Box(c.Node)
					a.CoverBox(idx, lo, hi)
				}
			}
		}
	}
}

// edges returns the refs a node leads to, in its first k entries: a
// routing node's two children, a link's Fwd, nothing for a leaf.
func edges(n *kdtree.Node) (refs [2]kdtree.Ref, k int) {
	switch {
	case n.Moved:
		return [2]kdtree.Ref{n.Fwd}, 1
	case n.Leaf:
		return refs, 0
	}
	return [2]kdtree.Ref{n.Left, n.Right}, 2
}

// corrupt builds an ErrSnapshotCorrupt violation report.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// Validate checks the graph joining the snapshot's arenas, returning
// ErrSnapshotCorrupt for a dimension or partition count out of range,
// an empty root partition, an arena under another partition's Self, a
// reference to a node the snapshot lacks, or a graph reachable from the
// root that is not a strict tree or leaves a node out. The arenas are
// FitBoxes's and their partitions' business (RestoreTree).
func (s *TreeSnapshot) Validate() error {
	if err := s.validHeader(); err != nil {
		return err
	}
	if len(s.Parts[0].Nodes) == 0 {
		return corrupt("root partition has no nodes")
	}
	seen := make([][]bool, len(s.Parts))
	for pi := range s.Parts {
		if self := s.Parts[pi].Self; self != int32(pi) {
			return corrupt("partition %d: the arena of partition %d", pi, self)
		}
		seen[pi] = make([]bool, len(s.Parts[pi].Nodes))
	}
	err := s.walk(kdtree.Ref{}, func(r kdtree.Ref, _ *kdtree.Node, _ int) error {
		if seen[r.Part][r.Node] {
			return corrupt("partition %d node %d: two parents or on a cycle", r.Part, r.Node)
		}
		seen[r.Part][r.Node] = true
		return nil
	})
	if err != nil {
		return err
	}
	for pi := range seen {
		if ni := slices.Index(seen[pi], false); ni >= 0 {
			return corrupt("partition %d node %d: unreachable from the root", pi, ni)
		}
	}
	return nil
}

// validHeader checks what the size of a snapshot's boxes rests on — its
// dimension and partition count — before any is allocated.
func (s *TreeSnapshot) validHeader() error {
	if s.Dim < 1 || s.Dim > MaxSnapshotDim {
		return corrupt("dimension %d out of range", s.Dim)
	}
	if len(s.Parts) < 1 || len(s.Parts) > maxSnapshotParts {
		return corrupt("%d partitions out of range", len(s.Parts))
	}
	return nil
}
