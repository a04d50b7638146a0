package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// partition is one fabric-hosted piece of the SemTree: a kdtree.Arena
// — the same kernel the sequential tree runs on, its Self set to the
// partition's fabric ID so a child reference with a foreign Part is a
// cross-partition link — plus what distribution needs on top: the lock,
// the remote-box cache and the counters.
// Navigation takes the read lock; mutation (insert, split, spill) the
// write lock. Locks are never held while waiting on an *upstream*
// partition — call edges follow the partition DAG, so lock acquisition
// cannot cycle.
type partition struct {
	t  *Tree
	id cluster.NodeID

	mu sync.RWMutex
	kdtree.Arena
	points int

	// remoteBoxes caches the bounding box of every cross-partition
	// subtree this partition links to, keyed by the edge's reference.
	// Entries are installed when a subtree registers (buildPartition's
	// adopt handshake, a trunk install) and expanded when an insert
	// forwards through the edge, so the search guard for a remote child
	// is the same exact min-distance bound a local child gets. Guarded
	// by mu like the arena; boxes are owned copies, never aliased with
	// another partition's (the remote side keeps expanding its own).
	remoteBoxes map[kdtree.Ref]box

	// path is routeLocked's descent scratch (as kdtree.Tree keeps one for
	// Insert). Guarded by mu: the router runs under the write lock.
	path []int32

	// boxWork counts the boxes inserts grew (path boxes and remote-edge
	// cache entries). Guarded by mu: every writer holds the write lock,
	// handleStats reads under the read lock.
	boxWork int64

	// installed is the last install this partition applied, by its Seq,
	// and the reply it gave: a retried install is answered, not applied
	// again (handleInstall). One is enough, because installs reach a
	// partition one at a time from one sender. Guarded by mu; never part
	// of a snapshot.
	installed struct {
		seq  uint64
		resp installResp
	}

	navSteps atomic.Int64 // nodes traversed by insert descents
	inserts  atomic.Int64 // insertions applied locally
	spills   atomic.Int64 // build-partition runs
}

// handle dispatches one fabric message. Only the query handlers consume
// the caller's context: mutating operations (insert, adopt, rebalance
// plumbing) run to completion once delivered, so a cancelled client
// never leaves the tree half-modified.
func (p *partition) handle(ctx context.Context, from cluster.NodeID, req any) (any, error) {
	switch r := req.(type) {
	case bulkAddReq:
		return p.handleBulkAdd(from, r)
	case installReq:
		return p.handleInstall(r)
	case snapshotReq:
		return p.handleSnapshot()
	case restoreReq:
		return p.handleRestore(r)
	case *knnReq:
		return p.handleKNN(ctx, r)
	case rangeReq:
		return p.handleRange(ctx, r)
	case statsReq:
		return p.handleStats()
	default:
		return nil, p.refuse("unknown request %T", req)
	}
}

// checkNode refuses a node index the arena does not have: every request
// naming one is checked under the lock its handler takes, before the
// arena is indexed.
func (p *partition) checkNode(idx int32) error {
	if idx < 0 || int(idx) >= len(p.Nodes) {
		return p.refuse("node %d of %d", idx, len(p.Nodes))
	}
	return nil
}

// checkCoords is the one point check: coordinates of another dimension
// than dim, or with a NaN — which no split plane orders — cannot be
// indexed. The client runs it on Insert and on every point of a
// BulkLoad before any message or build; a partition refuses a request
// that fails it (checkPoint).
func checkCoords(coords []float64, dim int) error {
	if len(coords) != dim {
		return fmt.Errorf("a point of dimension %d, want %d", len(coords), dim)
	}
	if slices.ContainsFunc(coords, math.IsNaN) {
		return errors.New("a point with a NaN coordinate")
	}
	return nil
}

// checkPoint refuses coordinates checkCoords rejects for the arena.
func (p *partition) checkPoint(coords []float64) error {
	if err := checkCoords(coords, p.Dim); err != nil {
		return p.refuse("%v", err)
	}
	return nil
}

// checkEntries refuses a batch with an entry the arena cannot route.
// Callers hold the lock.
func (p *partition) checkEntries(entries []batchEntry) error {
	for _, e := range entries {
		if err := p.checkNode(e.Node); err != nil {
			return err
		}
		if err := p.checkPoint(e.Point.Coords); err != nil {
			return err
		}
	}
	return nil
}

// foreignLinks calls fn on every link of arena a that leaves a — a
// routing node's child or a tombstone's forward — and returns its
// first error.
func foreignLinks(a *kdtree.Arena, fn func(node int, r kdtree.Ref) error) error {
	for i := range a.Nodes {
		n := &a.Nodes[i]
		refs := [2]kdtree.Ref{n.Left, n.Right}
		switch {
		case n.Moved:
			refs = [2]kdtree.Ref{n.Fwd, n.Fwd}
		case n.Leaf:
			continue
		}
		for _, r := range refs {
			if a.IsLocal(r) {
				continue
			}
			if err := fn(i, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// linksDown reports the first link that leaves arena a not leading down
// the partition DAG, to a partition created after self's. In that order
// every walk across partitions ends, and no lock a partition holds
// across a hop is asked for again. An arena a partition installs or
// restores, and every partition of a snapshot, is held to it.
func linksDown(a *kdtree.Arena, self int32) error {
	return foreignLinks(a, func(i int, r kdtree.Ref) error {
		if r.Part <= self {
			return fmt.Errorf("node %d links to partition %d, not one after %d", i, r.Part, self)
		}
		return nil
	})
}

// host returns the fabric node hosting the node a reference names.
func host(ref kdtree.Ref) cluster.NodeID { return cluster.NodeID(ref.Part) }

// refTo names node idx of the partition hosted by fabric node part.
func refTo(part cluster.NodeID, idx int32) kdtree.Ref {
	return kdtree.Ref{Part: int32(part), Node: idx}
}

// handleBulkAdd is the one ingest protocol, the partition-local step of
// the distributed insertion algorithm (§III-B.1) for a batch of any size
// — Tree.Insert's batch of one included. The batch first descends under
// the read lock (warmForwards): when every entry leaves the partition
// through regions that already contain it, nothing here changes, and
// the batch forwards without the write lock instead of contending with
// query read locks that span whole traversals. Otherwise it routes under
// the write lock (ingestLocked) and lands by its policy. Either way the
// entries that leave travel on as nested synchronous batches of the same
// policy (forward), so the ack covers the whole batch; a spill the batch
// triggered runs after them.
//
// A batch from the client enters at the tree root, node 0 of the root
// partition, and is refused anywhere else: the boxes above any other
// entry would not grow to cover what lands below it. Forwarded batches
// enter where their sender's references point, and the sender has
// already grown its own boxes and its cache of ours.
func (p *partition) handleBulkAdd(from cluster.NodeID, r bulkAddReq) (any, error) {
	if from == cluster.ClientID {
		if root := p.t.rootPartition(); p != root || slices.ContainsFunc(r.Entries, func(e batchEntry) bool { return e.Node != 0 }) {
			return nil, p.refuse("a client batch enters at node 0 of partition %d", root.id)
		}
	}
	fw, warm, err := p.warmForwards(r.Entries)
	spill := false
	if err == nil && !warm {
		p.mu.Lock()
		fw, spill, err = p.ingestLocked(r)
		p.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	err = p.forward(fw, r.Policy)
	if spill {
		p.buildPartition()
	}
	if err != nil {
		return nil, err
	}
	return ack{}, nil
}

// warmForwards is the read-locked warm path: it descends every entry
// and, when each one leaves through boxes that already contain it
// (forwardNeedsExpand), returns the batch's forwards and charges its
// navigation steps. It gives up (ok false) at the first entry that would
// land here or grow a box; ingestLocked then routes the whole batch
// again from its entry nodes — routing decisions are immutable, so the
// second descent takes the same path above any leaf the first one found.
// A batch the arena cannot route is refused here, before any descent.
func (p *partition) warmForwards(entries []batchEntry) (fw forwards, ok bool, err error) {
	var scratch [32]int32 // the path of any descent up to 32 deep, on the stack
	steps := 0
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.checkEntries(entries); err != nil {
		return nil, false, err
	}
	for _, e := range entries {
		_, ref, remote, path := p.Descend(e.Node, e.Point.Coords, scratch[:0])
		if !remote || p.forwardNeedsExpand(path, ref, e.Point.Coords) {
			return nil, false, nil
		}
		steps += len(path)
		fw.add(ref, e.Point)
	}
	p.navSteps.Add(int64(steps))
	return fw, true, nil
}

// ingestLocked routes a batch (routeLocked) and lands what stays here by
// the batch's policy: Append lands each entry as the router reaches its
// leaf; Graft gathers the entries by leaf and grafts each leaf's share
// in ascending leaf index (a graft appends arena slots, so the order is
// part of the layout). It reports the forwards and whether the partition
// must now spill. The batch is checked again: a restore may have
// replaced the arena since warmForwards let go of the read lock.
// Callers hold the write lock.
func (p *partition) ingestLocked(r bulkAddReq) (fw forwards, spill bool, err error) {
	if err := p.checkEntries(r.Entries); err != nil {
		return nil, false, err
	}
	var landed int
	if r.Policy == landAppend {
		fw, landed = p.routeLocked(r.Entries, p.Append)
	} else {
		groups := make(map[int32][]kdtree.Point)
		fw, landed = p.routeLocked(r.Entries, func(leaf int32, pt kdtree.Point) {
			groups[leaf] = append(groups[leaf], pt)
		})
		for _, leaf := range slices.Sorted(maps.Keys(groups)) {
			p.Graft(leaf, groups[leaf])
		}
	}
	p.points += landed
	p.inserts.Add(int64(landed))
	return fw, landed > 0 && p.capacityExceededLocked(), nil
}

// forwards is a router pass's outgoing entries: one batch per partition
// hosting some of them, in the order the router first reached each.
type forwards []forwardBatch

type forwardBatch struct {
	to      cluster.NodeID
	entries []batchEntry
}

// add queues pt for the partition ref names, re-tagged with the node it
// re-enters at.
func (fw *forwards) add(ref kdtree.Ref, pt kdtree.Point) {
	e := batchEntry{Node: ref.Node, Point: pt}
	for i := range *fw {
		if b := &(*fw)[i]; b.to == host(ref) {
			b.entries = append(b.entries, e)
			return
		}
	}
	*fw = append(*fw, forwardBatch{to: host(ref), entries: []batchEntry{e}})
}

// routeLocked is the one ingest router: every entry descends from its
// entry node by (Sr, Sv) comparisons, every box on the descent path
// expands to include the point (the point belongs to each of those
// logical subtrees), and the entry either reaches a local leaf — handed
// to land, the batch's landing policy, unless the leaf already holds
// its ID (holdsLocked) — or leaves through a cross-partition edge,
// whose cached box grows before the entry is queued for the partition
// hosting the child. A re-sent batch thus lands nothing twice, here or
// downstream, and its box growth was already idempotent. It returns the
// queue and the number of entries that landed; the caller accounts them and
// forwards the queue after releasing the write lock it holds across this
// call: call edges follow the partition DAG, but no lock may be held
// across one.
//
// Expansion precedes the forward, so on a lossy or failing fabric a
// dropped point can leave boxes covering a point that never landed:
// dilation is always pruning-safe (a looser box only skips less), and
// exactness — what the consistency checks assert — holds under reliable
// delivery.
func (p *partition) routeLocked(entries []batchEntry, land func(leaf int32, pt kdtree.Point)) (fw forwards, landed int) {
	for _, e := range entries {
		leaf, ref, remote, path := p.Descend(e.Node, e.Point.Coords, p.path[:0])
		p.path = path
		p.navSteps.Add(int64(len(p.path)))
		p.expandPathBoxes(p.path, e.Point.Coords)
		if !remote {
			if !p.holdsLocked(leaf, e.Point.ID) {
				land(leaf, e.Point)
				landed++
			}
			continue
		}
		p.expandRemoteBox(ref, e.Point.Coords)
		fw.add(ref, e.Point)
	}
	return fw, landed
}

// holdsLocked reports whether the leaf at idx already holds the point
// with the given ID, by a scan of its bucket. Every builder and split
// sends "<= left", as Descend does, so a stored point's descent from any
// ancestor reaches the leaf that holds it, and a re-sent entry finds
// itself there. Callers hold at least the read lock.
func (p *partition) holdsLocked(idx int32, id uint64) bool {
	for _, s := range p.Nodes[idx].Slots {
		if p.IDs[s] == id {
			return true
		}
	}
	return false
}

// forward sends the entries a router pass queued on to the partitions
// hosting them as nested synchronous batches of the given policy, in
// ascending partition id (a forward can spill onto the next fresh
// partition, so the order is part of the layout). It returns the first
// error; the remaining batches are still sent. The caller holds no lock.
func (p *partition) forward(fw forwards, policy landing) error {
	//semtree:allow boundaryonce: orders a write's forwards by partition id, not a result set
	slices.SortFunc(fw, func(a, b forwardBatch) int { return cmp.Compare(a.to, b.to) })
	var first error
	for _, b := range fw {
		if _, err := p.t.call(p.id, b.to, bulkAddReq{Entries: b.entries, Policy: policy}); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// capacityExceededLocked evaluates the partition's resource condition
// (§III-B.1; of "dynamically evaluated at run-time … or statically
// fixed", the static one): more points than PartitionCapacity while
// compute nodes remain. Callers hold at least the read lock.
func (p *partition) capacityExceededLocked() bool {
	c := p.t.cfg.PartitionCapacity
	return c > 0 && p.points > c && p.t.hasPartitionBudget()
}

// buildPartition implements §III-B.2: when the resource condition
// fires, the partition's leaf nodes are moved into newly created
// partitions and direct links replace the local references; the moved
// leaves stay behind as forwarding tombstones for in-flight operations.
// When fewer compute nodes remain than leaves exist, the available new
// partitions adopt the leaves as the placement kernel assigns them —
// geometrically close leaves together — a budget-limited variant of
// the paper's one-partition-per-leaf procedure.
func (p *partition) buildPartition() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.capacityExceededLocked() {
		return // a concurrent spill already ran
	}

	// Movable leaves are leaf children of local routing nodes; the
	// partition's own subtree roots must stay for routing.
	type move struct {
		parent int32
		right  bool
		leaf   int32
	}
	var moves []move
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Leaf || n.Moved {
			continue
		}
		if p.movableLocked(n.Left) {
			moves = append(moves, move{int32(i), false, n.Left.Node})
		}
		if p.movableLocked(n.Right) {
			moves = append(moves, move{int32(i), true, n.Right.Node})
		}
	}
	if len(moves) == 0 {
		return
	}
	targets := p.t.allocPartitions(len(moves))
	if len(targets) == 0 {
		return
	}
	p.spills.Add(1)
	// Assign every movable leaf a target up front: pure computation
	// over the leaves' boxes, safe under the spill lock.
	subs := make([]placeBox, len(moves))
	for k, mv := range moves {
		lo, hi := p.Box(mv.leaf)
		subs[k] = placeBox{lo: lo, hi: hi, points: len(p.Nodes[mv.leaf].Slots)}
	}
	assign := p.t.assignTargets(subs, targets)
	moved := 0
	for k, mv := range moves {
		// The leaf ships as a one-node fragment, its region with it: the
		// adopting side installs it as a new subtree root (the other end
		// of Figure 2's direct link), and the copy cached here keeps
		// pruning the relocated subtree by exact min-distance (and grows
		// when inserts forward through the direct link). A retry whose
		// first reply was lost gets the remembered one, so the leaf
		// relocates once.
		//semtree:allow lockedcall: adoption targets are fresh partitions that never call back into this one; the spill lock cannot cycle
		resp, err := p.t.call(p.id, assign[k], installReq{Seq: p.t.installs.Add(1), Entry: -1, Frag: p.Extract(mv.leaf, nil)})
		if err != nil {
			continue // retries exhausted: the leaf stays local; a later spill may retry
		}
		moved += p.relocateLocked(mv.parent, mv.right, mv.leaf, refTo(assign[k], resp.(installResp).Node))
	}
	if moved > 0 {
		p.Compact() // the relocated points live on their new partitions only
	}
}

// movableLocked reports whether ref names a leaf the build-partition
// algorithm may relocate: a local leaf. Callers hold at least the read
// lock.
func (p *partition) movableLocked(ref kdtree.Ref) bool {
	return p.IsLocal(ref) && p.Nodes[ref.Node].Leaf
}

// relocateLocked commits the relocation of the leaf at idx to the
// subtree root ref on another partition: the parent edge becomes the
// direct link, the leaf's region moves to the remote-box cache (an
// owned copy — the adopted side keeps expanding its own), and the leaf
// stays behind as a forwarding tombstone for in-flight operations. It
// returns the number of points that left. Callers hold the write lock.
func (p *partition) relocateLocked(parent int32, right bool, idx int32, ref kdtree.Ref) int {
	if lo, hi := p.Box(idx); lo != nil {
		p.cacheRemoteBox(ref, lo, hi)
	}
	if right {
		p.Nodes[parent].Right = ref
	} else {
		p.Nodes[parent].Left = ref
	}
	moved := len(p.Nodes[idx].Slots)
	p.points -= moved
	p.Tombstone(idx, ref)
	return moved
}

// handleStats reports local counters.
func (p *partition) handleStats() (any, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	leaves := 0
	for i := range p.Nodes {
		if p.Nodes[i].Leaf {
			leaves++
		}
	}
	return statsResp{
		Points:   p.points,
		Nodes:    len(p.Nodes),
		Leaves:   leaves,
		NavSteps: p.navSteps.Load(),
		Inserts:  p.inserts.Load(),
		BoxWork:  p.boxWork,
	}, nil
}
