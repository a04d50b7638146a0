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
	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// The partition protocol: eight request kinds, each doing something no
// other does, and the six responses they share. Every type a fabric
// carries is declared in this file and registered in its one init, so
// the list below is the whole wire surface of the distributed tree
// (TestProtocolTable holds partition.handle to it).

// insertReq asks a partition to insert Point into the subtree rooted at
// its node Node, forwarding across partitions with nested synchronous
// calls: the ack means the point has landed. It is also the entry type
// of the bulk protocol — one point, tagged with the node at which its
// descent (re-)enters the receiving partition.
type insertReq struct {
	Node  int32
	Point kdtree.Point
}

// ack is the empty acknowledgement of the requests that report nothing
// but completion: insertReq, bulkAddReq and restoreReq.
type ack struct{}

// entriesAt tags pts as batch entries that all enter at node.
func entriesAt(node int32, pts []kdtree.Point) []insertReq {
	entries := make([]insertReq, len(pts))
	for i, p := range pts {
		entries[i] = insertReq{Node: node, Point: p}
	}
	return entries
}

// bulkAddReq routes a batch of points from their entry nodes and grafts
// balanced fragments at the destination leaves. The ack means the whole
// batch — including entries forwarded across partitions — has landed.
type bulkAddReq struct {
	Entries []insertReq
}

// installReq moves a tree fragment into a partition's arena. Nodes is a
// kdtree fragment — Nodes[0] is the root, child refs with Part ==
// kdtree.Local index Nodes, any other ref is a cross-partition link —
// and Remote carries the bounding box of each subtree those links lead
// to, so the installing partition can seed its remote-box cache: the
// region registers together with the link. The fragment is moved, not
// copied: the sender gives up its buckets and boxes.
//
// Entry < 0 appends the fragment as a new subtree root (the other end
// of a direct link: a relocated leaf, a frontier subtree). Entry >= 0
// grafts it over that leaf: the root lands in Entry's arena slot, and
// points already in the leaf are re-routed down the fragment, so a
// graft composes with concurrent inserts. The receiver refuses a graft
// — OK false, nothing installed — when Entry is no longer a plain leaf
// (split or tombstoned).
type installReq struct {
	Entry  int32
	Nodes  []kdtree.Node
	Remote []RemoteBox
}

// installResp reports the arena index the fragment's root landed on, or
// OK false for a refused graft.
type installResp struct {
	Node int32
	OK   bool
}

// snapshotReq asks a partition for a deep copy of its state.
type snapshotReq struct{}

type snapshotResp struct {
	State PartitionSnapshot
}

// restoreReq replaces a partition's state wholesale; refs are already
// translated to the receiving fabric's NodeIDs. The empty state is how
// a partition is reset (Tree.reset).
type restoreReq struct {
	State PartitionSnapshot
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

// rangeReq asks a partition for all points within D of Query in the
// subtree rooted at Node. D is on the (un-squared) distance scale.
type rangeReq struct {
	Node  int32
	Query []float64
	D     float64
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

// statsReq asks a partition for its local statistics.
type statsReq struct{}

// statsResp reports one partition's state.
type statsResp struct {
	Points   int
	Nodes    int
	Leaves   int
	NavSteps int64
	Inserts  int64
	BoxWork  int64
}

// Register every protocol type so the TCP fabric can carry it.
func init() {
	cluster.RegisterMessage(insertReq{})
	cluster.RegisterMessage(ack{})
	cluster.RegisterMessage(bulkAddReq{})
	cluster.RegisterMessage(installReq{})
	cluster.RegisterMessage(installResp{})
	cluster.RegisterMessage(snapshotReq{})
	cluster.RegisterMessage(snapshotResp{})
	cluster.RegisterMessage(restoreReq{})
	cluster.RegisterMessage(knnReq{})
	cluster.RegisterMessage(knnResp{})
	cluster.RegisterMessage(rangeReq{})
	cluster.RegisterMessage(rangeResp{})
	cluster.RegisterMessage(statsReq{})
	cluster.RegisterMessage(statsResp{})
}
