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
	"slices"
	"sync"

	"semtree/internal/cluster"
	"semtree/internal/column"
	"semtree/internal/errcode"
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
// fields as zigzag varints, point IDs, install numbers and slice
// lengths as uvarints,
// floats raw, booleans as one byte. A message that carries float runs
// opens with their total count, and every []float64 in it is a run — a
// uvarint length and the raw values — that the decoder cuts from one
// block of that size (floatBlock), so decoding allocates that block and
// one slice per []Neighbor, []knnEntry and []batchEntry, never one per
// point. A neighbour is its point's ID and its squared distance, never
// its coordinates: no receiver reads them, so no result set carries
// them off a partition. An arena — a fragment, a partition's state —
// travels in the layout of its snapshot file (appendState): the three
// column bodies EncodeSnapshot writes per partition, coordinate block
// included and every split value raw, read by the file's own readers
// straight into the arena's blocks, and of its boxes only its links',
// which the receiver cannot rebuild; it rebuilds the rest by the file's
// rule. Empty and nil slices both decode as nil.

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

// ErrRequestRefused marks a request a partition refused because it does
// not fit the partition's state — an entry node past the end of the
// arena, a point or query of another dimension, an arena whose links do
// not form a tree — having changed nothing. It is permanent: the same
// request would be refused again.
var ErrRequestRefused = errors.New("core: request refused")

// refuse returns ErrRequestRefused, naming the partition and the reason.
func (p *partition) refuse(format string, args ...any) error {
	return fmt.Errorf("%w: partition %d: %s", ErrRequestRefused, p.id, fmt.Sprintf(format, args...))
}

func init() {
	for kind, decode := range kinds {
		cluster.RegisterKind(kind, decode)
	}
	cluster.RegisterPooled(
		cluster.Pooled{Kind: kindKNNReq, Decode: readPooledKNNReq, Release: knnReqs.Put},
		cluster.Pooled{Kind: kindKNNResp, Decode: readPooledKNNResp, Release: releaseKNNResp})
	errcode.Register(errcode.AdmissionRejected, ErrAdmissionRejected)
	errcode.Register(errcode.DeadlineBudget, ErrDeadlineBudget)
	errcode.Register(errcode.QuotaExhausted, ErrQuotaExhausted)
	errcode.Register(errcode.SnapshotCorrupt, ErrSnapshotCorrupt)
	errcode.Register(errcode.RequestRefused, ErrRequestRefused)
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
// landed. Tree.Insert sends a batch of one. It is safe to re-send: an
// entry whose leaf already holds its point ID lands nowhere
// (routeLocked), so a batch whose reply was lost lands nothing twice,
// here or in the forwards it sends again.
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
// kdtree.Local index Frag.Nodes, and a link's Fwd names the root of a
// subtree on another partition, its box that subtree's region: the
// region registers together with the link. A fragment with a link is a
// trunk, and grafts over node 0 of the root partition only
// (handleInstall). The fragment is moved, not copied: the sender gives
// up its blocks, and the receiving arena adopts them and rebases the
// fragment's slots in place (kdtree.Arena.Install). That is safe under
// cluster.Handler's delivery contract: InProc hands the value over
// once and never re-sends it, while TCP — and the tests' fault seam on
// any fabric — delivers a fresh copy to every attempt, so a retried
// install never meets a fragment an earlier attempt rewrote. On the
// wire it travels as every arena does (appendState).
//
// Seq names the install tree-wide (Tree.installs; never 0), and makes
// it safe to re-send: the receiver remembers the last install it
// applied and the reply it gave, and answers the same Seq with that
// reply without applying it again (handleInstall).
//
// Entry < 0 appends the fragment as a new subtree root (the other end
// of a direct link: a relocated leaf, a frontier subtree). Entry 0 on
// the root partition, the one graft taken (handleInstall), grafts it
// over the tree root's leaf: the fragment's root lands in its slot, and
// points already in the leaf are re-routed down the fragment, so a
// graft composes with concurrent inserts; it is refused — OK false,
// nothing installed — once that node is no longer a plain leaf.
type installReq struct {
	Frag  kdtree.Arena
	Entry int32
	Seq   uint64
}

func (installReq) WireKind() byte { return kindInstallReq }

func (m installReq) AppendWire(a *column.Appender) {
	appendState(a, &m.Frag)
	a.Varint(int64(m.Entry))
	a.Uvarint(m.Seq)
}

func readInstallReq(d *column.Decoder) any {
	return installReq{Frag: readState(d, true), Entry: d.Int32(), Seq: d.Uvarint()}
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
	State kdtree.Arena
}

func (snapshotResp) WireKind() byte                  { return kindSnapshotResp }
func (m snapshotResp) AppendWire(a *column.Appender) { appendState(a, &m.State) }
func readSnapshotResp(d *column.Decoder) any         { return snapshotResp{State: readState(d, false)} }

// restoreReq replaces a partition's state wholesale; refs are already
// translated to the receiving fabric's NodeIDs. The empty state is how
// a partition is reset (Tree.reset).
type restoreReq struct {
	State kdtree.Arena
}

func (restoreReq) WireKind() byte                  { return kindRestoreReq }
func (m restoreReq) AppendWire(a *column.Appender) { appendState(a, &m.State) }
func readRestoreReq(d *column.Decoder) any         { return restoreReq{State: readState(d, true)} }

// appendState appends arena s in the layout of its snapshot file: the
// float count of its link boxes, the arena's Dim and Self, the three
// column bodies EncodeSnapshot writes (appendColumns) — each as a
// block, its length then its bytes, where the file frames a column —
// and every link's box corners as runs, links in node order, an empty
// box as two empty runs. A link's box is the one box that
// travels: the region of a subtree another partition holds, which the
// receiver cannot rebuild. Every split value is written raw: the node
// column marks none stateLeftMax, so a message has one encoding
// whatever boxes its sender holds.
func appendState(a *column.Appender, s *kdtree.Arena) {
	floats := 0
	for i := range s.Nodes {
		if s.Nodes[i].Moved {
			lo, hi := s.Box(int32(i)) // nil for an empty box
			floats += len(lo) + len(hi)
		}
	}
	a.Uvarint(uint64(floats))
	a.Uvarint(uint64(s.Dim))
	a.Varint(int64(s.Self))
	start := len(*a)
	appendColumns(a, s, func() {
		a.Block(start)
		start = len(*a)
	}, true, nil)
	for i := range s.Nodes {
		if s.Nodes[i].Moved {
			lo, hi := s.Box(int32(i))
			appendRun(a, lo)
			appendRun(a, hi)
		}
	}
}

// readState reads what appendState wrote — each column with the file's
// reader, so a block must hold its body exactly, and a node column
// that leaves a split value out (stateLeftMax) is refused — and
// rebuilds the arena's boxes (rebuildBoxes). A request's arena it
// refuses is a request refused (ErrRequestRefused), on every fabric.
func readState(d *column.Decoder, request bool) kdtree.Arena {
	fail := d.Fail
	if request {
		fail = func(err error) { d.Fail(fmt.Errorf("%w: %w", ErrRequestRefused, err)) }
	}
	fs := newFloatBlock(d)
	dim, self := d.Uvarint(), d.Int32()
	if dim > MaxSnapshotDim {
		fail(fmt.Errorf("core: dimension %d out of range", dim))
	}
	var body column.Decoder
	s, leftOut, err := readColumns(int(dim), self, func() (*column.Decoder, error) {
		body.Reset(d.Block())
		return &body, d.Err()
	}, true)
	if err != nil {
		fail(err)
		return s
	}
	if slices.Contains(leftOut, true) {
		fail(errLeftOut)
		return s
	}
	var corners [][]float64 // every link's lo and hi, links in node order
	for i := range s.Nodes {
		if s.Nodes[i].Moved {
			lo, hi := fs.next(), fs.next()
			if len(hi) != len(lo) || (lo != nil && len(lo) != s.Dim) {
				fail(errLinkBox)
			}
			corners = append(corners, lo, hi)
		}
	}
	fs.end()
	if d.Err() == nil {
		if err := rebuildBoxes(&s, corners); err != nil {
			fail(err)
		}
	}
	return s
}

// rebuildBoxes gives arena s, read from a message, its boxes: every
// link's from corners, its lo and hi in node order, and the rest by
// FitBoxes's rule over this one arena: every leaf's from its bucket
// (fitLeaves), then every routing node's from its children's
// (coverRouting).
//
// The box block is believed only as far as the message backs it. Every
// node a partition sends is a leaf holding points (but for an empty
// tree's root), a routing node over two children, or a link, which
// carries its box unless its subtree is empty — so an arena has at most
// 2·(points + link boxes + 1) nodes; one claiming more is refused
// before its boxes are allocated.
func rebuildBoxes(s *kdtree.Arena, corners [][]float64) error {
	boxes := 0
	for k := 0; k < len(corners); k += 2 {
		if corners[k] != nil {
			boxes++
		}
	}
	if len(s.Nodes) > 2*(len(s.IDs)+boxes+1) {
		return errNodeCount
	}
	fitLeaves(s)
	k := 0
	for i := range s.Nodes {
		if s.Nodes[i].Moved {
			s.CoverBox(int32(i), corners[k], corners[k+1])
			k += 2
		}
	}
	coverRouting([]*kdtree.Arena{s})
	return nil
}

// knnEntry is one guarded subtree of a fanned-out k-nearest
// continuation: the node index in the receiving partition, plus the
// subtree's pruning guard — the exact squared minimum distance from
// the query to the subtree's bounding box, which the sender's link
// holds; < 0 is unconditional.
// The receiver re-checks the guard against its evolving result set, so
// a subtree another entry already ruled out costs nothing.
type knnEntry struct {
	Node    int32
	GuardSq float64
}

// knnReq asks a partition to continue a k-nearest search. Rs carries
// the caller's current result set (Table I) as its seed, so the remote
// side prunes with the same bound the caller had; the response returns
// what the callee found beyond it (knnResp). Neighbor distances are
// *squared* Euclidean distances everywhere on the wire — the single
// deferred sqrt is applied once at the client boundary
// (Tree.KNearest).
//
// Seq selects the paper's strictly sequential protocol rooted at Node:
// the caller blocks on each cross-partition hop and offers the finds to
// its own set before continuing. When Seq is false (the default), the
// caller finishes its local traversal first, groups the surviving
// remote subtrees by hosting partition, and sends each partition ONE
// request carrying all its Entries (Node is ignored when Entries is
// set) — at most M−1 parallel messages per wave, the paper's §III-C
// bound. Rs is then the set the wave started from: a pruning hint
// only, so both modes return identical result sets.
//
// knnReq is the one request a fabric carries by pointer: a hop sends
// the one its pooled query context holds (queryCtx.fwd), the client the
// one its caller's scratch holds (KNNScratch), and the decoder returns a
// *knnReq. The handler only reads it — handleKNN copies what it keeps —
// and it aliases the sender's result set, which stays still until the
// call returns. It is also the one pooled request kind: a TCP serving
// end decodes it into a released request (readPooledKNNReq) and
// releases it once the reply is written, so on any fabric it is the
// handler's only until the handler returns.
type knnReq struct {
	Node    int32
	Query   []float64
	K       int
	Rs      []kdtree.Neighbor
	Seq     bool
	Entries []knnEntry
}

func (*knnReq) WireKind() byte { return kindKNNReq }

func (m *knnReq) AppendWire(a *column.Appender) {
	a.Uvarint(uint64(len(m.Query)))
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
	m := new(knnReq)
	m.read(d)
	return m
}

// knnReqs holds the k-NN requests TCP serving ends decoded and released,
// each keeping its slices' capacity for the next.
var knnReqs = sync.Pool{New: func() any { return new(knnReq) }}

// readPooledKNNReq is a TCP serving end's decoder of knnReq
// (cluster.RegisterPooled): it decodes into a released request's
// capacity, where an empty field decodes as empty rather than nil.
func readPooledKNNReq(d *column.Decoder) any {
	m := knnReqs.Get().(*knnReq)
	m.read(d)
	return m
}

// read decodes m from d into the capacity m's slices already have; a
// new m allocates one float block, one []Neighbor and one []knnEntry.
func (m *knnReq) read(d *column.Decoder) {
	fs := newFloatBlock(d)
	fs.reuse(m.Query)
	m.Node = d.Int32()
	m.Query = fs.next()
	m.K = int(d.Varint())
	m.Rs = readNeighbors(d, m.Rs)
	m.Seq = d.Bool()
	n := d.Count(9) // a node and a guard, 9 bytes at least
	if n > cap(m.Entries) {
		m.Entries = make([]knnEntry, n)
	}
	m.Entries = m.Entries[:n]
	for i := range m.Entries {
		m.Entries[i] = knnEntry{Node: d.Int32(), GuardSq: d.Float()}
	}
	fs.end()
}

// queryStats is the work accounting one partition reports with a query
// response: its own traversal counters plus everything it aggregated
// from the partitions it contacted downstream. Callers fold the
// response stats into their own, so the client-facing total (ExecStats)
// is an exact sum over every partition the query executed on,
// regardless of protocol or nesting depth.
type queryStats struct {
	Nodes   int64 // tree nodes visited (reached and not pruned)
	Buckets int64 // leaf buckets scanned
	Dists   int64 // point distance evaluations
	Msgs    int64 // fabric calls issued downstream on behalf of the query
	Parts   int64 // partition handler executions (this one + downstream)
	Misses  int64 // downstream k-NN calls whose reply came back empty: nothing beyond the Rs they were sent
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

// knnResp carries back what a partition found: the entries of its
// final set — the top K of the request's seed and the visited subtrees
// — that are not seed entries, matched on (ID, Dist), sorted ascending
// by (squared distance, point ID). An empty reply is a probe miss: the
// partition was probed and improved nothing. To the client, whose
// request has no seed, it is the whole answer. Stats reports the work
// done by this partition and everything downstream of it.
//
// It is the one pooled reply kind (cluster.RegisterPooled), carried by
// pointer, and every *knnResp has one owner at a time. handleKNN draws
// its reply from knnResps and gives it up on return; a TCP serving end
// releases it once it is written, and on InProc it reaches the caller
// itself. A TCP calling end decodes a reply into one drawn from the
// pool (readPooledKNNResp), the fault seam likewise, and the caller —
// hop, the fan-out's merge, knnResolved — releases it
// (releaseKNNResp) once its finds are merged. A reply that reaches no
// one is left to the collector. The kind table's decoder, readKNNResp,
// returns a knnResp value of its own, as the other replies' do.
type knnResp struct {
	Rs    []kdtree.Neighbor
	Stats queryStats
}

func (knnResp) WireKind() byte { return kindKNNResp }

func (m knnResp) AppendWire(a *column.Appender) {
	appendNeighbors(a, m.Rs)
	appendStats(a, m.Stats)
}

func readKNNResp(d *column.Decoder) any {
	var m knnResp
	m.read(d)
	return m
}

// knnResps holds released k-NN replies, each keeping its finds'
// capacity for the next.
var knnResps = sync.Pool{New: func() any { return new(knnResp) }}

// getKNNResp draws a reply from knnResps: its finds empty, with the
// capacity of a released one.
func getKNNResp() *knnResp {
	m := knnResps.Get().(*knnResp)
	m.Rs = m.Rs[:0]
	return m
}

// releaseKNNResp gives a reply back to knnResps once nothing reads it;
// anything but a *knnResp is left alone.
func releaseKNNResp(v any) {
	if m, ok := v.(*knnResp); ok {
		knnResps.Put(m)
	}
}

// readPooledKNNResp is a TCP calling end's decoder of knnResp
// (cluster.RegisterPooled): it decodes into a released reply's capacity,
// where empty finds decode as empty rather than nil.
func readPooledKNNResp(d *column.Decoder) any {
	m := knnResps.Get().(*knnResp)
	m.read(d)
	return m
}

// read decodes m from d into the capacity m's finds already have; a new
// m allocates one []Neighbor.
func (m *knnResp) read(d *column.Decoder) {
	m.Rs = readNeighbors(d, m.Rs)
	m.Stats = readStats(d)
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
// traversal/arrival order, (ID, squared distance) pairs; matches are
// sorted (ascending distance, ties by point ID) and square-rooted
// exactly once, at the client boundary in Tree.RangeSearch.
// Intermediate partitions must not sort — that work would be thrown
// away by the merge at the next hop up. Stats aggregates like
// knnResp.Stats.
type rangeResp struct {
	Neighbors []kdtree.Neighbor
	Stats     queryStats
}

func (rangeResp) WireKind() byte { return kindRangeResp }

func (m rangeResp) AppendWire(a *column.Appender) {
	appendNeighbors(a, m.Neighbors)
	appendStats(a, m.Stats)
}

func readRangeResp(d *column.Decoder) any {
	return rangeResp{Neighbors: readNeighbors(d, nil), Stats: readStats(d)}
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

// reuse makes buf the block when it can hold the message's floats.
func (fs *floatBlock) reuse(buf []float64) {
	if cap(buf) >= fs.left {
		fs.block = buf[:fs.left]
	}
}

var (
	errFloatRun   = errors.New("core: a float run exceeds its message's float count")
	errFloatCount = errors.New("core: a message's float count exceeds its runs")
	errLinkBox    = errors.New("core: a link's box is not of its arena's dimension")
	errNodeCount  = errors.New("core: an arena has more nodes than its points and link boxes allow")
	errLeftOut    = errors.New("core: a partition message leaves a split value out")
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

// appendNeighbors writes each neighbour as its point's ID and its
// distance; its coordinates stay behind.
func appendNeighbors(a *column.Appender, ns []kdtree.Neighbor) {
	a.Uvarint(uint64(len(ns)))
	for i := range ns {
		a.Uvarint(ns[i].Point.ID)
		a.Float(ns[i].Dist)
	}
}

// readNeighbors reads a neighbour run into ns's capacity when it is
// enough; an empty run is ns[:0], so nil for a nil ns.
func readNeighbors(d *column.Decoder, ns []kdtree.Neighbor) []kdtree.Neighbor {
	n := d.Count(9) // an ID and a distance, 9 bytes at least
	if n > cap(ns) {
		ns = make([]kdtree.Neighbor, n)
	}
	ns = ns[:n]
	for i := range ns {
		ns[i] = kdtree.Neighbor{Point: kdtree.Point{ID: d.Uvarint()}, Dist: d.Float()}
	}
	return ns
}
