package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// partition is one fabric-hosted piece of the SemTree: a kdtree.Arena
// — the same kernel the sequential tree runs on, its Self set to the
// partition's fabric ID so a link's Fwd with a foreign Part is a
// cross-partition edge — plus what distribution needs on top: the lock
// and the counters.
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

	// path is routeLocked's descent scratch (as kdtree.Tree keeps one for
	// Insert). Guarded by mu: the router runs under the write lock.
	path []int32

	// boxWork counts the boxes inserts grew on their descent paths, a
	// link's included. Guarded by mu: every writer holds the write lock,
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
// than dim, or not all finite (kdtree.Finite), cannot be indexed. The
// client runs it on Insert and on every point of a BulkLoad before any
// message or build; a partition refuses a request that fails it
// (checkPoint).
func checkCoords(coords []float64, dim int) error {
	if len(coords) != dim {
		return fmt.Errorf("a point of dimension %d, want %d", len(coords), dim)
	}
	if !kdtree.Finite(coords) {
		return errors.New("a point with a NaN or infinite coordinate")
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

// foreignLinks calls fn on the Fwd of every link of arena a that leaves
// a and returns its first error. A routing child that leaves a is no
// link: kdtree.Arena.Fit refuses it.
func foreignLinks(a *kdtree.Arena, fn func(node int, r kdtree.Ref) error) error {
	for i := range a.Nodes {
		if n := &a.Nodes[i]; n.Moved && !a.IsLocal(n.Fwd) {
			if err := fn(i, n.Fwd); err != nil {
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
// enter where their sender's links point, and the sender has already
// grown its own boxes, the link's included.
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
// navigation steps (a link is not a step: the partition behind it
// charges its own). It gives up (ok false) at the first entry that would
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
		if !remote || p.forwardNeedsExpand(path, e.Point.Coords) {
			return nil, false, nil
		}
		steps += len(path) - 1
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
	p.addPoints(landed)
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
// that very point (holdsLocked) — or reaches a link, whose box grew
// with the path, and is queued for the partition hosting the subtree
// behind it. A re-sent batch thus lands nothing twice, here or
// downstream, and its box growth was already idempotent; an entry
// that lands nowhere is exactly one already stored, so every box it
// grew covered it already. It returns the queue and the number of
// entries that landed; the caller accounts them and forwards the queue
// after releasing the write lock it holds across this call: call edges
// follow the partition DAG, but no lock may be held across one. A link
// is not a navigation step: the partition behind it charges its own.
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
		p.expandPathBoxes(p.path, e.Point.Coords)
		if remote {
			p.navSteps.Add(int64(len(p.path) - 1))
			fw.add(ref, e.Point)
			continue
		}
		p.navSteps.Add(int64(len(p.path)))
		if !p.holdsLocked(leaf, e.Point) {
			land(leaf, e.Point)
			landed++
		}
	}
	return fw, landed
}

// holdsLocked reports whether the leaf at idx already holds pt — its ID
// at its coordinates — by a scan of its bucket. Every builder and split
// sends "<= left", as Descend does, so a stored point's descent from any
// ancestor reaches the leaf that holds it, and a re-sent entry, the same
// message again, finds itself there. An entry that reuses a stored ID at
// other coordinates lands as its own point, as it does when it descends
// to another leaf: IDs are unique by the writers' contract (BulkLoad),
// and the boxes above it stay exact. Callers hold at least the read
// lock.
func (p *partition) holdsLocked(idx int32, pt kdtree.Point) bool {
	for _, s := range p.Nodes[idx].Slots {
		if p.IDs[s] == pt.ID && slices.Equal(p.Point(s).Coords, pt.Coords) {
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
// partitions, and each moved leaf becomes, in place, the direct link to
// its new home — which also keeps in-flight operations that resolved it
// working.
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

	// Movable leaves are leaf children of routing nodes; the
	// partition's own subtree roots must stay for routing.
	var moves []int32
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Leaf || n.Moved {
			continue
		}
		for _, c := range [2]kdtree.Ref{n.Left, n.Right} {
			if p.Nodes[c.Node].Leaf {
				moves = append(moves, c.Node)
			}
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
	// Each leaf ships as a one-node fragment, a new subtree root on its
	// target (the other end of Figure 2's direct link), and becomes the
	// link, keeping its box — once all its target's installs returned.
	// A failed one may have applied: that target, allocated for this
	// spill, is reset (a lost reset leaves an orphan, which Rebalance
	// repairs), and its leaves stay local for a later spill.
	//semtree:allow lockedcall: adoption targets are fresh partitions that never call back into this one; the spill lock cannot cycle
	refs, sent, errs := p.t.installSubtrees(p.id, &p.Arena, moves, targets)
	for g, err := range errs {
		if err != nil {
			//semtree:allow lockedcall: the target is fresh and never calls back into this one; the spill lock cannot cycle
			_ = p.t.reset(sent[g], false)
		}
	}
	moved := 0
	for k, leaf := range moves {
		if errs[slices.Index(sent, host(refs[k]))] == nil {
			moved += p.relocateLocked(leaf, refs[k])
		}
	}
	if moved > 0 {
		p.Compact() // the relocated points live on their new partitions only
	}
}

// relocateLocked commits the relocation of the leaf at idx to the
// subtree root ref on another partition: the leaf becomes the link to
// it in place, keeping its box (kdtree.Arena.Tombstone). It returns the
// number of points that left. Callers hold the write lock.
func (p *partition) relocateLocked(idx int32, ref kdtree.Ref) int {
	moved := len(p.Nodes[idx].Slots)
	p.addPoints(-moved)
	p.Tombstone(idx, ref)
	return moved
}

// bucketPoints returns the number of points arena a's leaves hold: the
// count a partition keeps of an arena it installs or restores, and the
// one a snapshot's columns carry.
func bucketPoints(a *kdtree.Arena) int {
	n := 0
	for i := range a.Nodes {
		if nd := &a.Nodes[i]; nd.Leaf && !nd.Moved {
			n += len(nd.Slots)
		}
	}
	return n
}

// addPoints moves the partition's point count by delta, and the tree's
// (Len) with it: the one writer of either. Callers hold the write lock.
func (p *partition) addPoints(delta int) {
	p.points += delta
	p.t.size.Add(int64(delta))
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
