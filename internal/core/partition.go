package core

import (
	"context"
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

	// boxWork counts box-maintenance writes (path-box growth plus
	// remote-edge cache expansions). Guarded by mu: every writer holds
	// the write lock, handleStats reads under the read lock.
	boxWork int64

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
	case insertReq:
		return p.handleInsert(r)
	case bulkAddReq:
		return p.handleBulkAdd(r)
	case installReq:
		return p.handleInstall(r)
	case snapshotReq:
		return p.handleSnapshot()
	case restoreReq:
		return p.handleRestore(r)
	case knnReq:
		return p.handleKNN(ctx, r)
	case rangeReq:
		return p.handleRange(ctx, r)
	case statsReq:
		return p.handleStats()
	default:
		return nil, fmt.Errorf("core: partition %d: unknown request %T", p.id, req)
	}
}

// host returns the fabric node hosting the node a reference names.
func host(ref kdtree.Ref) cluster.NodeID { return cluster.NodeID(ref.Part) }

// refTo names node idx of the partition hosted by fabric node part.
func refTo(part cluster.NodeID, idx int32) kdtree.Ref {
	return kdtree.Ref{Part: int32(part), Node: idx}
}

// routeLocked is the one ingest router, the partition-local step of the
// distributed insertion algorithm (§III-B.1): every entry descends from
// its entry node by (Sr, Sv) comparisons, every box on the descent path
// expands to include the point (the point belongs to each of those
// logical subtrees), and the entry either reaches a local leaf — handed
// to land, the protocol's landing policy — or leaves through a
// cross-partition edge, whose cached box grows before the entry is
// queued for the partition hosting the child, re-tagged with the node
// it re-enters at. It returns the queue and the number of entries that
// landed; the caller accounts them and forwards the queue after
// releasing the write lock it holds across this call: call edges follow
// the partition DAG, but no lock may be held across one.
//
// Expansion precedes the forward, so on a lossy or failing fabric a
// dropped point can leave boxes covering a point that never landed:
// dilation is always pruning-safe (a looser box only skips less), and
// exactness — what the consistency checks assert — holds under reliable
// delivery.
func (p *partition) routeLocked(entries []insertReq, land func(leaf int32, pt kdtree.Point)) (forwards map[cluster.NodeID][]insertReq, landed int) {
	for _, e := range entries {
		p.path = p.path[:0]
		leaf, ref, remote := p.Descend(e.Node, e.Point.Coords, &p.path)
		p.navSteps.Add(int64(len(p.path)))
		p.expandPathBoxes(p.path, e.Point.Coords)
		if !remote {
			land(leaf, e.Point)
			landed++
			continue
		}
		p.expandRemoteBox(ref, e.Point.Coords)
		if forwards == nil {
			forwards = make(map[cluster.NodeID][]insertReq)
		}
		forwards[host(ref)] = append(forwards[host(ref)], insertReq{Node: ref.Node, Point: e.Point})
	}
	return forwards, landed
}

// forwardInserts hands the entries a router pass queued to the
// single-point protocol of the partitions hosting them, synchronously:
// the caller acknowledges only after every point has landed, in
// ascending partition id (a forward can spill onto the next fresh
// partition, so the order is part of the layout). It returns the first
// error; the remaining entries are still attempted.
func (p *partition) forwardInserts(forwards map[cluster.NodeID][]insertReq) error {
	if len(forwards) == 0 {
		return nil // the common single insert: it landed here
	}
	var first error
	for _, part := range slices.Sorted(maps.Keys(forwards)) {
		for _, e := range forwards[part] {
			if _, err := p.t.call(p.id, part, e); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// handleInsert is the single-point protocol. What it has that the bulk
// protocol lacks is the read-locked warm path: a point inside
// every region it routes through forwards to the next partition without
// the write lock, instead of contending with query read locks that span
// whole traversals (a forward that still has a box to grow takes the
// write lock for just that). A point that lands here resumes under the
// write lock, in the router, at the leaf the read-locked walk found:
// routing decisions are immutable, so the walk above the leaf stands,
// and whatever happened to the leaf in between (a concurrent insert
// split it, a spill relocated it) the router's descent
// resolves. No lock is held while forwarding.
func (p *partition) handleInsert(r insertReq) (any, error) {
	c := r.Point.Coords
	var path []int32
	p.mu.RLock()
	leaf, ref, remote := p.Descend(r.Node, c, &path)
	needsExpand := remote && p.forwardNeedsExpand(path, ref, c)
	p.mu.RUnlock()
	if remote {
		p.navSteps.Add(int64(len(path)))
		if needsExpand {
			p.mu.Lock()
			p.expandPathBoxes(path, c)
			p.expandRemoteBox(ref, c)
			p.mu.Unlock()
		}
		_, err := p.t.call(p.id, host(ref), insertReq{Node: ref.Node, Point: r.Point})
		return ack{}, err
	}
	// The router re-walks the leaf, so only the walk above it is charged
	// and expanded here.
	trunk := path[:len(path)-1]
	p.navSteps.Add(int64(len(trunk)))
	p.mu.Lock()
	p.expandPathBoxes(trunk, c)
	forwards, landed := p.routeLocked([]insertReq{{Node: leaf, Point: r.Point}}, p.Append)
	p.points += landed
	p.inserts.Add(int64(landed))
	spill := p.capacityExceededLocked()
	p.mu.Unlock()
	err := p.forwardInserts(forwards)
	if spill {
		p.buildPartition()
	}
	return ack{}, err
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
		// when inserts forward through the direct link).
		//semtree:allow lockedcall: adoption targets are fresh partitions that never call back into this one; the spill lock cannot cycle
		resp, err := p.t.call(p.id, assign[k], installReq{Entry: -1, Frag: p.Extract(mv.leaf, nil)})
		if err != nil {
			continue // leaf stays local; a later spill may retry
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
