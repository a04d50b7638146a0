// Package core implements SemTree's distributed KD-tree (§III-B): a
// partition tree whose nodes are hosted by fabric compute nodes. Data
// points live only in leaf buckets; a root partition holds routing
// nodes; navigation, insertion and search cross partition boundaries
// through fabric messages, mirroring the paper's MPJ protocol.
//
// The three algorithms of the paper map to:
//
//   - Distributed insertion (§III-B.1): Tree.Insert / InsertAll —
//     navigate by (Sr, Sv) comparisons, forwarding to the partition
//     hosting the child when Cp != Childp, splitting saturated leaves.
//   - Build partition (§III-B.2): triggered when a partition's
//     resource condition fires; the partition's leaves are moved into
//     newly created partitions and direct links are installed.
//   - Distributed k-nearest and range search (§III-B.3, §III-B.4):
//     Tree.KNearest / Tree.RangeSearch — the sequential backtracking
//     procedures, carrying the result set Rs across partitions; range
//     search fans out in parallel at border nodes.
package core

import (
	"errors"
	"fmt"

	"semtree/internal/cluster"
	"semtree/internal/column"
	"semtree/internal/kdtree"
)

// The partition protocol: seven request kinds, each doing something no
// other does, and the six responses they share. Every type a fabric
// carries is declared in this file with its wire codec — a WireKind,
// an AppendWire and a read function beside the declaration — and kinds
// is the table of all of them, so this file is the whole wire surface
// of the distributed tree (TestProtocolTable holds partition.handle to
// it).
//
// A message's encoding is its fields in declaration order: integer
// fields as zigzag varints, point IDs and slice lengths as uvarints,
// floats raw, booleans as one byte. A message that carries floats
// opens with their total count, and every []float64 in it is a run — a
// uvarint length and the raw values — that the decoder cuts from one
// block of that size (floatBlock), so decoding allocates that block and
// one slice per []Neighbor, []knnEntry, []batchEntry and []RemoteBox,
// never one per point. An arena — a fragment, a partition's state —
// travels in the layout of its snapshot file (appendState): the four
// column bodies WriteSnapshot writes, read by the file's own readers
// straight into the arena's blocks, and no node box, which the receiver
// rebuilds by the file's rule. Empty and nil slices both decode as nil.

// Wire kinds: the byte a TCP fabric frames each protocol type under.
// Kind 1 is retired — it framed a single-point insert request, which is
// now a one-entry bulkAddReq — so every other kind keeps its number.
const (
	kindAck byte = iota + 2
	kindBulkAddReq
	kindInstallReq
	kindInstallResp
	kindSnapshotReq
	kindSnapshotResp
	kindRestoreReq
	kindKNNReq
	kindKNNResp
	kindRangeReq
	kindRangeResp
	kindStatsReq
	kindStatsResp
)

// kinds is the kind table: every protocol type's decoder, by wire kind.
var kinds = map[byte]cluster.Decode{
	kindAck:          readAck,
	kindBulkAddReq:   readBulkAddReq,
	kindInstallReq:   readInstallReq,
	kindInstallResp:  readInstallResp,
	kindSnapshotReq:  readSnapshotReq,
	kindSnapshotResp: readSnapshotResp,
	kindRestoreReq:   readRestoreReq,
	kindKNNReq:       readKNNReq,
	kindKNNResp:      readKNNResp,
	kindRangeReq:     readRangeReq,
	kindRangeResp:    readRangeResp,
	kindStatsReq:     readStatsReq,
	kindStatsResp:    readStatsResp,
}

func init() {
	for kind, decode := range kinds {
		cluster.RegisterKind(kind, decode)
	}
}

// ack is the empty acknowledgement of the requests that report nothing
// but completion: bulkAddReq and restoreReq.
type ack struct{}

func (ack) WireKind() byte              { return kindAck }
func (ack) AppendWire(*column.Appender) {}
func readAck(*column.Decoder) any       { return ack{} }

// batchEntry is one point of an ingest batch, tagged with the node at
// which its descent (re-)enters the receiving partition.
type batchEntry struct {
	Node  int32
	Point kdtree.Point
}

// entriesAt tags pts as batch entries that all enter at node.
func entriesAt(node int32, pts []kdtree.Point) []batchEntry {
	entries := make([]batchEntry, len(pts))
	for i, p := range pts {
		entries[i] = batchEntry{Node: node, Point: p}
	}
	return entries
}

// landing is a batch's landing policy: how its entries that reach a leaf
// of the receiving partition land there. Forwards inherit it.
type landing bool

const (
	// landAppend lands entries one at a time (kdtree.Arena.Append),
	// splitting a saturated leaf as the paper's insertion does: the policy
	// of Tree.Insert and of the points an install displaces.
	landAppend landing = false
	// landGraft gathers the entries by leaf and replaces each leaf with a
	// balanced fragment over its bucket and its share (kdtree.Arena.Graft):
	// the policy of a bulk merge's chunks.
	landGraft landing = true
)

// bulkAddReq is the one ingest request (§III-B.1): it routes a batch of
// points from their entry nodes and lands them by Policy. The ack means
// the whole batch — including entries forwarded across partitions — has
// landed. Tree.Insert sends a batch of one.
type bulkAddReq struct {
	Entries []batchEntry
	Policy  landing
}

func (bulkAddReq) WireKind() byte { return kindBulkAddReq }

func (m bulkAddReq) AppendWire(a *column.Appender) {
	n := 0
	for _, e := range m.Entries {
		n += len(e.Point.Coords)
	}
	a.Uvarint(uint64(n))
	a.Bool(bool(m.Policy))
	a.Uvarint(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		a.Varint(int64(e.Node))
		appendPoint(a, e.Point)
	}
}

func readBulkAddReq(d *column.Decoder) any {
	fs := newFloatBlock(d)
	m := bulkAddReq{Policy: landing(d.Bool())}
	if n := d.Count(3); n > 0 { // a node, an empty run and an ID at least
		m.Entries = make([]batchEntry, n)
		for i := range m.Entries {
			m.Entries[i] = batchEntry{Node: d.Int32(), Point: readPoint(d, &fs)}
		}
	}
	fs.end()
	return m
}

// installReq moves a tree fragment into a partition's arena. Frag is a
// kdtree fragment — Frag.Nodes[0] is the root, child refs with Part ==
// kdtree.Local index Frag.Nodes, any other ref is a cross-partition
// link — and Remote carries the bounding box of each subtree those
// links lead to, so the installing partition can seed its remote-box
// cache: the region registers together with the link. The fragment is
// moved, not copied: the sender gives up its blocks. On the wire it is
// a partition state whose point count is its ID column's length.
//
// Entry < 0 appends the fragment as a new subtree root (the other end
// of a direct link: a relocated leaf, a frontier subtree). Entry >= 0
// grafts it over that leaf: the root lands in Entry's arena slot, and
// points already in the leaf are re-routed down the fragment, so a
// graft composes with concurrent inserts. The receiver refuses a graft
// — OK false, nothing installed — when Entry is no longer a plain leaf
// (split or tombstoned).
type installReq struct {
	Frag   kdtree.Arena
	Remote []RemoteBox
	Entry  int32
}

func (installReq) WireKind() byte { return kindInstallReq }

func (m installReq) AppendWire(a *column.Appender) {
	appendState(a, &PartitionSnapshot{Arena: m.Frag, Points: len(m.Frag.IDs), Remote: m.Remote})
	a.Varint(int64(m.Entry))
}

func readInstallReq(d *column.Decoder) any {
	s := readState(d)
	if s.Points != len(s.IDs) {
		d.Fail(fmt.Errorf("core: a fragment of %d points claims %d", len(s.IDs), s.Points))
	}
	return installReq{Frag: s.Arena, Remote: s.Remote, Entry: d.Int32()}
}

// installResp reports the arena index the fragment's root landed on, or
// OK false for a refused graft.
type installResp struct {
	Node int32
	OK   bool
}

func (installResp) WireKind() byte { return kindInstallResp }

func (m installResp) AppendWire(a *column.Appender) {
	a.Varint(int64(m.Node))
	a.Bool(m.OK)
}

func readInstallResp(d *column.Decoder) any {
	return installResp{Node: d.Int32(), OK: d.Bool()}
}

// snapshotReq asks a partition for a deep copy of its state.
type snapshotReq struct{}

func (snapshotReq) WireKind() byte              { return kindSnapshotReq }
func (snapshotReq) AppendWire(*column.Appender) {}
func readSnapshotReq(*column.Decoder) any       { return snapshotReq{} }

type snapshotResp struct {
	State PartitionSnapshot
}

func (snapshotResp) WireKind() byte                  { return kindSnapshotResp }
func (m snapshotResp) AppendWire(a *column.Appender) { appendState(a, &m.State) }
func readSnapshotResp(d *column.Decoder) any         { return snapshotResp{State: readState(d)} }

// restoreReq replaces a partition's state wholesale; refs are already
// translated to the receiving fabric's NodeIDs. The empty state is how
// a partition is reset (Tree.reset).
type restoreReq struct {
	State PartitionSnapshot
}

func (restoreReq) WireKind() byte                  { return kindRestoreReq }
func (m restoreReq) AppendWire(a *column.Appender) { appendState(a, &m.State) }
func readRestoreReq(d *column.Decoder) any         { return restoreReq{State: readState(d)} }

// appendState appends a partition's state in the layout of its
// snapshot file: the float count of its remote boxes, the arena's Dim
// and Self, the four column bodies WriteSnapshot writes (appendColumns)
// — each as a block, its length then its bytes, where the file frames
// a column — and the remote boxes' corners as runs, in the order of the
// remote column. A remote box is the one box that travels: the region
// of a subtree another partition holds, which the receiver cannot
// rebuild.
func appendState(a *column.Appender, s *PartitionSnapshot) {
	a.Uvarint(uint64(remoteFloats(s.Remote)))
	a.Uvarint(uint64(s.Dim))
	a.Varint(int64(s.Self))
	start := len(*a)
	s.appendColumns(a, func() {
		a.Block(start)
		start = len(*a)
	})
	for _, e := range s.Remote {
		appendRun(a, e.Lo)
		appendRun(a, e.Hi)
	}
}

// readState reads what appendState wrote — each column with the file's
// reader, so a block must hold its body exactly — and rebuilds the
// arena's boxes (rebuildBoxes).
func readState(d *column.Decoder) PartitionSnapshot {
	fs := newFloatBlock(d)
	dim, self := d.Uvarint(), d.Int32()
	if dim > MaxSnapshotDim {
		d.Fail(fmt.Errorf("core: dimension %d out of range", dim))
	}
	var body column.Decoder
	s, err := readColumns(int(dim), func() (*column.Decoder, error) {
		body.Reset(d.Block())
		return &body, d.Err()
	})
	s.Self = self
	if err != nil {
		d.Fail(err)
		return s
	}
	for i := range s.Remote {
		e := &s.Remote[i]
		if e.Lo, e.Hi = fs.next(), fs.next(); len(e.Hi) != len(e.Lo) || (e.Lo != nil && len(e.Lo) != s.Dim) {
			d.Fail(errRemoteBox)
		}
	}
	fs.end()
	if d.Err() == nil {
		if err := s.rebuildBoxes(); err != nil {
			d.Fail(err)
		}
	}
	return s
}

// rebuildBoxes gives an arena read from a message the boxes the message
// does not carry, by ReadSnapshot's rule over this one arena: every
// leaf's from its bucket (fitLeaves), then every routing node's from
// its children's (coverRouting), where a child that leaves the arena
// takes the box of its remote entry. A partition holds an entry for
// every such child, so a child without one is an error, never an empty
// box too tight to guard its subtree.
//
// The box block is believed only as far as the message backs it. Every
// node a partition sends is a leaf holding points (but for an empty
// tree's root), a routing node over two leaves or remote children, or
// the tombstone of a relocated leaf, whose link has its remote entry —
// and a partition caches no empty box — so an arena has at most
// 2·(points + remote boxes + 1) nodes; one claiming more is refused
// before its boxes are allocated.
func (s *PartitionSnapshot) rebuildBoxes() error {
	boxes := 0
	for _, e := range s.Remote {
		if e.Lo != nil {
			boxes++
		}
	}
	if len(s.Nodes) > 2*(len(s.IDs)+boxes+1) {
		return errNodeCount
	}
	s.fitLeaves()
	remote := make(map[kdtree.Ref]int, len(s.Remote))
	for i, e := range s.Remote {
		remote[e.Ref] = i
	}
	var err error
	coverRouting([]*kdtree.Arena{&s.Arena}, func(r kdtree.Ref) (lo, hi []float64) {
		i, ok := remote[r]
		if !ok {
			err = fmt.Errorf("core: child %v leaves the arena with no remote box", r)
			return nil, nil
		}
		return s.Remote[i].Lo, s.Remote[i].Hi
	})
	return err
}

// knnEntry is one guarded subtree of a fanned-out k-nearest
// continuation: the node index in the receiving partition, plus the
// subtree's pruning guard — the exact squared minimum distance from
// the query to the subtree's bounding box when the sender knows it,
// falling back to the squared splitting-plane distance (§III-B.3) for
// a subtree whose region metadata is unknown; < 0 is unconditional.
// The receiver re-checks the guard against its evolving result set, so
// a subtree another entry already ruled out costs nothing.
type knnEntry struct {
	Node    int32
	GuardSq float64
}

// knnReq asks a partition to continue a k-nearest search. Rs carries
// the current result set (Table I), so the remote side prunes with the
// same bound the caller had; the response returns the merged set.
// Neighbor distances are *squared* Euclidean distances everywhere on
// the wire — the single deferred sqrt is applied once at the client
// boundary (Tree.KNearest).
//
// Seq selects the paper's strictly sequential protocol rooted at Node:
// the caller blocks on each cross-partition hop and adopts the merged
// set before continuing. When Seq is false (the default), the caller
// finishes its local traversal first, groups the surviving remote
// subtrees by hosting partition, and sends each partition ONE request
// carrying all its Entries (Node is ignored when Entries is set) — at
// most M−1 parallel messages per wave, the paper's §III-C bound. Rs is
// then a snapshot: a pruning hint only, so both modes return identical
// result sets.
type knnReq struct {
	Node    int32
	Query   []float64
	K       int
	Rs      []kdtree.Neighbor
	Seq     bool
	Entries []knnEntry
}

func (knnReq) WireKind() byte { return kindKNNReq }

func (m knnReq) AppendWire(a *column.Appender) {
	a.Uvarint(uint64(len(m.Query) + neighborFloats(m.Rs)))
	a.Varint(int64(m.Node))
	appendRun(a, m.Query)
	a.Varint(int64(m.K))
	appendNeighbors(a, m.Rs)
	a.Bool(m.Seq)
	a.Uvarint(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		a.Varint(int64(e.Node))
		a.Float(e.GuardSq)
	}
}

func readKNNReq(d *column.Decoder) any {
	fs := newFloatBlock(d)
	m := knnReq{Node: d.Int32(), Query: fs.next(), K: int(d.Varint()), Rs: readNeighbors(d, &fs), Seq: d.Bool()}
	if n := d.Count(9); n > 0 { // a node and a guard, 9 bytes at least
		m.Entries = make([]knnEntry, n)
		for i := range m.Entries {
			m.Entries[i] = knnEntry{Node: d.Int32(), GuardSq: d.Float()}
		}
	}
	fs.end()
	return m
}

// queryStats is the work accounting one partition reports with a query
// response: its own traversal counters plus everything it aggregated
// from the partitions it contacted downstream. Callers fold the
// response stats into their own, so the client-facing total (ExecStats)
// is an exact sum over every partition the query executed on,
// regardless of protocol or nesting depth.
type queryStats struct {
	Nodes   int64 // tree nodes visited (popped and not pruned)
	Buckets int64 // leaf buckets scanned
	Dists   int64 // point distance evaluations
	Msgs    int64 // fabric calls issued downstream on behalf of the query
	Parts   int64 // partition handler executions (this one + downstream)
	Misses  int64 // downstream k-NN calls whose reply did not improve the Rs they were sent
}

func appendStats(a *column.Appender, s queryStats) {
	for _, v := range [...]int64{s.Nodes, s.Buckets, s.Dists, s.Msgs, s.Parts, s.Misses} {
		a.Varint(v)
	}
}

func readStats(d *column.Decoder) queryStats {
	return queryStats{Nodes: d.Varint(), Buckets: d.Varint(), Dists: d.Varint(), Msgs: d.Varint(), Parts: d.Varint(), Misses: d.Varint()}
}

// merge adds another partition's stats field-by-field.
func (s *queryStats) merge(o queryStats) {
	s.Nodes += o.Nodes
	s.Buckets += o.Buckets
	s.Dists += o.Dists
	s.Msgs += o.Msgs
	s.Parts += o.Parts
	s.Misses += o.Misses
}

// addLocal adds the kernel's counters for this partition's own
// traversal — the one-for-one mapping kdtree.Stats documents.
func (s *queryStats) addLocal(k kdtree.Stats) {
	s.Nodes += int64(k.NodesVisited)
	s.Buckets += int64(k.LeavesVisited)
	s.Dists += int64(k.PointsScanned)
}

// fold accumulates a downstream response's stats, charging the one
// message that carried it.
func (s *queryStats) fold(o queryStats) {
	s.merge(o)
	s.Msgs++
}

// knnResp carries the merged result set back: the top K of the request
// seed plus the visited subtrees, sorted ascending by (squared
// distance, point ID). In parallel mode it may repeat seed points; the
// caller's merge deduplicates by point ID. Stats reports the work done
// by this partition and everything downstream of it.
type knnResp struct {
	Rs    []kdtree.Neighbor
	Stats queryStats
}

func (knnResp) WireKind() byte { return kindKNNResp }

func (m knnResp) AppendWire(a *column.Appender) {
	a.Uvarint(uint64(neighborFloats(m.Rs)))
	appendNeighbors(a, m.Rs)
	appendStats(a, m.Stats)
}

func readKNNResp(d *column.Decoder) any {
	fs := newFloatBlock(d)
	m := knnResp{Rs: readNeighbors(d, &fs), Stats: readStats(d)}
	fs.end()
	return m
}

// rangeReq asks a partition for all points within D of Query in the
// subtree rooted at Node. D is on the (un-squared) distance scale.
type rangeReq struct {
	Node  int32
	Query []float64
	D     float64
}

func (rangeReq) WireKind() byte { return kindRangeReq }

func (m rangeReq) AppendWire(a *column.Appender) {
	a.Uvarint(uint64(len(m.Query)))
	a.Varint(int64(m.Node))
	appendRun(a, m.Query)
	a.Float(m.D)
}

func readRangeReq(d *column.Decoder) any {
	fs := newFloatBlock(d)
	m := rangeReq{Node: d.Int32(), Query: fs.next(), D: d.Float()}
	fs.end()
	return m
}

// rangeResp carries the subtree's matches back. Ordering contract:
// Neighbors is an *unsorted* concatenation of partial result sets in
// traversal/arrival order, with squared distances; matches are sorted
// (ascending distance, ties by point ID) and square-rooted exactly
// once, at the client boundary in Tree.RangeSearch. Intermediate
// partitions must not sort — that work would be thrown away by the
// merge at the next hop up. Stats aggregates like knnResp.Stats.
type rangeResp struct {
	Neighbors []kdtree.Neighbor
	Stats     queryStats
}

func (rangeResp) WireKind() byte { return kindRangeResp }

func (m rangeResp) AppendWire(a *column.Appender) {
	a.Uvarint(uint64(neighborFloats(m.Neighbors)))
	appendNeighbors(a, m.Neighbors)
	appendStats(a, m.Stats)
}

func readRangeResp(d *column.Decoder) any {
	fs := newFloatBlock(d)
	m := rangeResp{Neighbors: readNeighbors(d, &fs), Stats: readStats(d)}
	fs.end()
	return m
}

// statsReq asks a partition for its local statistics.
type statsReq struct{}

func (statsReq) WireKind() byte              { return kindStatsReq }
func (statsReq) AppendWire(*column.Appender) {}
func readStatsReq(*column.Decoder) any       { return statsReq{} }

// statsResp reports one partition's state.
type statsResp struct {
	Points   int
	Nodes    int
	Leaves   int
	NavSteps int64
	Inserts  int64
	BoxWork  int64
}

func (statsResp) WireKind() byte { return kindStatsResp }

func (m statsResp) AppendWire(a *column.Appender) {
	for _, v := range [...]int64{int64(m.Points), int64(m.Nodes), int64(m.Leaves), m.NavSteps, m.Inserts, m.BoxWork} {
		a.Varint(v)
	}
}

func readStatsResp(d *column.Decoder) any {
	return statsResp{Points: int(d.Varint()), Nodes: int(d.Varint()), Leaves: int(d.Varint()), NavSteps: d.Varint(), Inserts: d.Varint(), BoxWork: d.Varint()}
}

// The values the messages share: points, neighbours and the float runs
// inside them.

// floatBlock is the floats of a message being decoded: their total
// count opens the message, and each run is cut from one block of that
// size — allocated at the first run cut — and clipped, so an append to
// one slice never reaches the next.
type floatBlock struct {
	d     *column.Decoder
	left  int // floats not yet read
	block []float64
}

func newFloatBlock(d *column.Decoder) floatBlock {
	return floatBlock{d: d, left: d.Count(8)}
}

var (
	errFloatRun   = errors.New("core: a float run exceeds its message's float count")
	errFloatCount = errors.New("core: a message's float count exceeds its runs")
	errRemoteBox  = errors.New("core: a remote box is not of its arena's dimension")
	errNodeCount  = errors.New("core: an arena has more nodes than its points and remote boxes allow")
)

// next reads one run; an empty run is nil.
func (fs *floatBlock) next() []float64 {
	n := fs.d.Uvarint()
	if n == 0 {
		return nil
	}
	if n > uint64(fs.left) {
		fs.d.Fail(errFloatRun)
		return nil
	}
	if fs.block == nil {
		fs.block = make([]float64, fs.left)
	}
	run := fs.block[:n:n]
	fs.block, fs.left = fs.block[n:], fs.left-int(n)
	fs.d.Floats(run)
	return run
}

// end requires every float of the count to have been read.
func (fs *floatBlock) end() {
	if fs.left != 0 {
		fs.d.Fail(errFloatCount)
	}
}

func appendRun(a *column.Appender, run []float64) {
	a.Uvarint(uint64(len(run)))
	a.Floats(run)
}

func appendPoint(a *column.Appender, p kdtree.Point) {
	appendRun(a, p.Coords)
	a.Uvarint(p.ID)
}

func readPoint(d *column.Decoder, fs *floatBlock) kdtree.Point {
	return kdtree.Point{Coords: fs.next(), ID: d.Uvarint()}
}

func neighborFloats(ns []kdtree.Neighbor) int {
	n := 0
	for i := range ns {
		n += len(ns[i].Point.Coords)
	}
	return n
}

func appendNeighbors(a *column.Appender, ns []kdtree.Neighbor) {
	a.Uvarint(uint64(len(ns)))
	for i := range ns {
		appendPoint(a, ns[i].Point)
		a.Float(ns[i].Dist)
	}
}

func readNeighbors(d *column.Decoder, fs *floatBlock) []kdtree.Neighbor {
	n := d.Count(10) // an empty run, an ID and a distance at least
	if n == 0 {
		return nil
	}
	ns := make([]kdtree.Neighbor, n)
	for i := range ns {
		ns[i] = kdtree.Neighbor{Point: readPoint(d, fs), Dist: d.Float()}
	}
	return ns
}

func remoteFloats(rs []RemoteBox) int {
	n := 0
	for _, r := range rs {
		n += len(r.Lo) + len(r.Hi)
	}
	return n
}
