package core

import (
	"context"
	"fmt"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// The sorted bulk loader: streaming ingest lands as coordinate batches,
// not single points, and the paper's own observation — "Kd-trees are
// more efficient in bulk-loading situations (as required by our
// approach)" (§III-B) — applies to the distributed tree too. BulkLoad
// turns a batch into median-partitioned balanced fragments client-side
// and installs them wholesale, so construction costs O(batch/bucket)
// fabric messages instead of one navigation + split cascade per point:
//
//   - Empty tree: build the whole balanced tree client-side, cut its
//     top into a routing trunk plus frontier subtrees, install one
//     group of subtrees per data partition as the placement kernel
//     assigns them (geometrically close subtrees together), and graft
//     the trunk onto the root partition's entry leaf — the same shape
//     as Rebalance, minus the collect, and safe against concurrent
//     inserts: the graft merges any points that raced into the entry
//     leaf and refuses (falling back to the merge path) if the root
//     stopped being a leaf.
//   - Live tree: route the batch down the existing structure like a
//     pipelined insert batch, but replace each destination leaf with a
//     balanced fragment bulk-built over (bucket ∪ assigned points) in
//     one step — no per-point split cascade — and forward the entries
//     that leave the partition as nested bulk batches.
//
// Both paths keep the region invariant: fragment boxes come out of the
// kernel's bulk builder (kdtree.Arena.Build) exact, and every box on a
// descent path expands before the point lands, exactly as single
// inserts do.

// DefaultBulkChunk is the per-message batch size of the bulk merge
// path. Chunking bounds message size; each chunk is applied under one
// partition write lock per partition it touches.
const DefaultBulkChunk = 2048

// bulkAddReq routes a batch of points from their entry nodes and grafts
// balanced fragments at the destination leaves. Unlike insertBatchReq
// it is synchronous: the response acknowledges that the whole batch —
// including entries forwarded across partitions — has landed.
type bulkAddReq struct {
	Entries []batchEntry
}

// bulkAddResp acknowledges a bulk batch, all forwards included.
type bulkAddResp struct{}

// graftReq asks a partition to replace leaf node Entry with a balanced
// fragment (see installReq; Nodes[0] is the fragment root, landing in
// Entry's arena slot). Points already in the entry leaf are re-routed
// down the installed fragment, so a graft composes with concurrent
// inserts. The receiver refuses — OK false, nothing installed — when
// Entry is no longer a plain leaf (split, tombstoned or migrating).
type graftReq struct {
	Entry  int32
	Nodes  []kdtree.Node
	Remote []RemoteBox
}

// graftResp reports whether the fragment was installed.
type graftResp struct {
	OK bool
}

func init() {
	cluster.RegisterMessage(bulkAddReq{})
	cluster.RegisterMessage(bulkAddResp{})
	cluster.RegisterMessage(graftReq{})
	cluster.RegisterMessage(graftResp{})
}

// BulkLoad inserts a batch of points through the bulk path. On an empty
// tree it builds the balanced layout client-side and distributes it
// across partitions via the placement kernel; on a live tree it merges
// the batch by grafting balanced fragments at the destination leaves.
// The call is synchronous: when it returns, every point is queryable.
// Concurrent BulkLoad calls serialize; concurrent Insert and queries
// are safe throughout. The input slice is not modified.
func (t *Tree) BulkLoad(ctx context.Context, pts []kdtree.Point) error {
	for i, p := range pts {
		if len(p.Coords) != t.cfg.Dim {
			return fmt.Errorf("core: point %d has %d coords, tree dimension is %d", i, len(p.Coords), t.cfg.Dim)
		}
	}
	if len(pts) == 0 {
		return nil
	}
	t.bulkMu.Lock()
	defer t.bulkMu.Unlock()
	if t.size.Load() == 0 {
		//semtree:allow lockedcall: bulkMu only serializes bulk passes; no handler or query path acquires it, so no lock cycle is possible
		ok, err := t.bulkBuild(pts)
		if err != nil {
			return err
		}
		if ok {
			t.size.Add(int64(len(pts)))
			return nil
		}
		// The root grew under us (concurrent inserts split the entry
		// leaf while we were building): merge instead.
	}
	//semtree:allow lockedcall: bulkMu only serializes bulk passes; no handler or query path acquires it, so no lock cycle is possible
	return t.bulkMerge(ctx, pts)
}

// bulkShouldDistribute decides whether a from-scratch bulk build spreads
// frontier subtrees across data partitions: only when spilling is
// configured and one partition hosting the whole batch would trip the
// resource condition anyway.
func (t *Tree) bulkShouldDistribute(n int) bool {
	cfg := t.cfg
	if cfg.MaxPartitions <= 1 {
		return false
	}
	if cfg.CapacityCheck != nil {
		// Estimate the node count of a balanced tree over n points.
		nodes := 1
		if cfg.BucketSize > 0 {
			nodes = 2*(n/cfg.BucketSize) + 1
		}
		return cfg.CapacityCheck(PartitionInfo{Points: n, Nodes: nodes, Capacity: cfg.PartitionCapacity})
	}
	return cfg.PartitionCapacity > 0 && n > cfg.PartitionCapacity
}

// bulkBuild is the empty-tree fast path: balanced build, frontier cut,
// placement-kernel assignment, one install per frontier subtree, trunk
// graft on the root. It reports ok=false — with any partial installs
// undone — when the root partition's entry leaf stopped being a leaf
// while the client-side build ran, in which case the caller falls back
// to the merge path.
func (t *Tree) bulkBuild(pts []kdtree.Point) (bool, error) {
	ordered := append([]kdtree.Point(nil), pts...) // the kdtree builder reorders in place
	seq, err := kdtree.BulkLoad(ordered, t.cfg.Dim, t.cfg.BucketSize)
	if err != nil {
		return false, fmt.Errorf("core: bulk build: %w", err)
	}
	root := t.rootPartition()

	var targets []cluster.NodeID
	if t.bulkShouldDistribute(len(pts)) && !seq.Nodes[0].Leaf {
		targets = t.allocPartitions(t.cfg.MaxPartitions)
	}
	if len(targets) == 0 {
		// Single partition (or nothing to distribute over): graft the
		// whole balanced tree onto the root's entry leaf. The graft
		// handler runs the capacity check afterwards, so a dynamic
		// resource condition still spills normally.
		resp, err := t.call(cluster.ClientID, root.id, graftReq{Entry: 0, Nodes: seq.Nodes})
		if err != nil {
			return false, fmt.Errorf("core: bulk graft: %w", err)
		}
		return resp.(graftResp).OK, nil
	}

	trunk, remote, used, err := t.installFrontier(&seq.Arena, targets)
	undo := func() {
		for _, id := range used {
			// Fresh partitions hold only our fragments; reset precisely
			// undoes the install. The partitions stay allocated (empty)
			// and rejoin the layout through later spills or rebalance.
			_, _ = t.call(cluster.ClientID, id, resetReq{})
		}
	}
	if err != nil {
		undo()
		return false, fmt.Errorf("core: bulk install: %w", err)
	}
	resp, err := t.call(cluster.ClientID, root.id, graftReq{Entry: 0, Nodes: trunk, Remote: remote})
	if err != nil {
		undo()
		return false, fmt.Errorf("core: bulk trunk graft: %w", err)
	}
	if !resp.(graftResp).OK {
		undo()
		return false, nil
	}
	return true, nil
}

// installFrontier distributes a client-built balanced tree (its root
// not a leaf) across targets: it cuts the tree below the root until the
// frontier is wide enough to give every target a subtree, installs each
// frontier subtree on the partition the placement kernel assigns it,
// and returns the trunk — everything above the frontier, frontier
// children replaced by their cross-partition refs — with each ref's
// region (so the partition that receives the trunk can seed its
// remote-box cache: the region registers together with the link,
// exactly like the adopt handshake) and the partitions that now hold
// fragments. The arena is consumed: installs move its buckets and boxes.
func (t *Tree) installFrontier(a *kdtree.Arena, targets []cluster.NodeID) (trunk []kdtree.Node, remote []RemoteBox, used []cluster.NodeID, err error) {
	frontier := cutFrontier(a, len(targets))
	assign := t.assignFrontier(a, frontier, targets)
	cut := make(map[int32]kdtree.Ref, len(frontier))
	for i, idx := range frontier {
		resp, err := t.call(cluster.ClientID, assign[i], installReq{Nodes: a.Extract(idx, nil)})
		if err != nil {
			return nil, nil, used, err
		}
		used = append(used, assign[i])
		ref := refTo(assign[i], resp.(installResp).Node)
		cut[idx] = ref
		remote = append(remote, RemoteBox{Ref: ref, Lo: a.Nodes[idx].Lo, Hi: a.Nodes[idx].Hi})
	}
	return a.Extract(0, cut), remote, used, nil
}

// bulkMerge streams the batch into a live tree in chunks, each chunk a
// synchronous bulkAddReq entering at the root.
func (t *Tree) bulkMerge(ctx context.Context, pts []kdtree.Point) error {
	root := t.rootPartition()
	for start := 0; start < len(pts); start += DefaultBulkChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := start + DefaultBulkChunk
		if end > len(pts) {
			end = len(pts)
		}
		entries := make([]batchEntry, 0, end-start)
		for _, p := range pts[start:end] {
			entries = append(entries, batchEntry{Node: 0, Point: p})
		}
		if _, err := t.call(cluster.ClientID, root.id, bulkAddReq{Entries: entries}); err != nil {
			return fmt.Errorf("core: bulk merge: %w", err)
		}
		t.size.Add(int64(end - start))
	}
	return nil
}

// cutFrontier cuts a client-built balanced tree below its root: BFS
// until the frontier is at least want wide (leaves stop growing). The
// root is always expanded, so the returned frontier never contains
// index 0 and a trunk always exists above it. The caller guarantees the
// root is not a leaf.
func cutFrontier(a *kdtree.Arena, want int) []int32 {
	frontier := []int32{a.Nodes[0].Left.Node, a.Nodes[0].Right.Node}
	for len(frontier) < want {
		grew := false
		var next []int32
		for _, idx := range frontier {
			n := &a.Nodes[idx]
			if n.Leaf {
				next = append(next, idx)
				continue
			}
			next = append(next, n.Left.Node, n.Right.Node)
			grew = true
		}
		frontier = next
		if !grew {
			break
		}
	}
	return frontier
}

// assignFrontier maps each frontier subtree to a target partition: the
// placement kernel packs geometrically close subtrees together
// (targets start empty, so the kernel spreads one anchor per partition
// and clusters the surplus); round-robin under the ablation policy.
func (t *Tree) assignFrontier(a *kdtree.Arena, frontier []int32, targets []cluster.NodeID) []cluster.NodeID {
	assign := make([]cluster.NodeID, len(frontier))
	if t.cfg.Placement == PlacementRoundRobin {
		for i := range frontier {
			assign[i] = targets[i%len(targets)]
		}
		return assign
	}
	subs := make([]placeBox, len(frontier))
	for i, idx := range frontier {
		subs[i] = placeBox{lo: a.Nodes[idx].Lo, hi: a.Nodes[idx].Hi, points: a.Count(idx)}
	}
	tgs := make([]placeTarget, len(targets))
	for i, id := range targets {
		tgs[i] = placeTarget{id: id}
	}
	for i, ti := range placeSubtrees(subs, tgs, t.model.hopToNs) {
		assign[i] = targets[ti]
	}
	return assign
}

// handleBulkAdd applies one bulk chunk: descend every entry under one
// write lock (expanding path boxes exactly like single inserts), graft
// a balanced fragment per destination leaf, then — after the lock is
// released — forward the entries that left the partition as nested
// synchronous bulk batches and run the spill check.
func (p *partition) handleBulkAdd(r bulkAddReq) (any, error) {
	var forwards map[cluster.NodeID][]batchEntry
	groups := make(map[int32][]kdtree.Point)
	var path []int32
	p.mu.Lock()
	for _, e := range r.Entries {
		path = path[:0]
		leafIdx, ref, remote := p.descend(e.Node, e.Point.Coords, &path)
		p.expandPathBoxes(path, e.Point.Coords)
		if remote {
			p.expandRemoteBox(ref, e.Point.Coords)
			if forwards == nil {
				forwards = make(map[cluster.NodeID][]batchEntry)
			}
			forwards[host(ref)] = append(forwards[host(ref)], batchEntry{Node: ref.Node, Point: e.Point})
			continue
		}
		groups[leafIdx] = append(groups[leafIdx], e.Point)
	}
	for leafIdx, batch := range groups {
		p.graftLocked(leafIdx, batch)
	}
	spill := p.capacityExceededLocked()
	p.mu.Unlock()
	var err error
	for part, entries := range forwards {
		// Synchronous, strictly downstream (the partition DAG): the
		// bulk path acknowledges only after every entry has landed.
		if _, cerr := p.t.call(p.id, part, bulkAddReq{Entries: entries}); cerr != nil && err == nil {
			err = cerr
		}
	}
	if spill {
		p.buildPartition()
	}
	if err != nil {
		return nil, err
	}
	return bulkAddResp{}, nil
}

// graftLocked merges a batch into the leaf at idx. Small unions append
// like plain inserts; larger ones are replaced wholesale by a balanced
// fragment the kernel builds over (bucket ∪ batch) straight into the
// arena — the step that removes the per-point split cascade. Migrating
// leaves only append (splits are deferred while the repacker drains
// them, exactly as appendLocked does). Callers hold the write lock and
// have already expanded the descent path's boxes for every batch point.
func (p *partition) graftLocked(idx int32, batch []kdtree.Point) {
	n := &p.Nodes[idx]
	total := len(n.Bucket) + len(batch)
	if p.migrating[idx] || total <= p.BucketSize {
		n.Bucket = append(n.Bucket, batch...)
	} else {
		all := make([]kdtree.Point, 0, total)
		all = append(all, n.Bucket...)
		all = append(all, batch...)
		p.Build(idx, all)
	}
	p.points += len(batch)
	p.inserts.Add(int64(len(batch)))
}

// handleBulkGraft installs a fragment over the leaf at Entry. The
// kernel validates the fragment before anything mutates, so a malformed
// one never leaves a half-installed arena. Points that were already in
// the entry leaf — concurrent inserts that raced the client-side build
// — are re-routed down the installed fragment; routes that leave the
// partition forward after the lock is released.
func (p *partition) handleBulkGraft(r graftReq) (any, error) {
	type routed struct {
		ref kdtree.Ref
		pt  kdtree.Point
	}
	var fwd []routed
	p.mu.Lock()
	if r.Entry < 0 || int(r.Entry) >= len(p.Nodes) {
		p.mu.Unlock()
		return nil, fmt.Errorf("core: graft entry %d out of range", r.Entry)
	}
	if entry := &p.Nodes[r.Entry]; !entry.Leaf || p.migrating[r.Entry] {
		p.mu.Unlock()
		return graftResp{}, nil
	}
	displaced := p.Nodes[r.Entry].Bucket
	if _, err := p.installLocked(r.Entry, r.Nodes, r.Remote); err != nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("core: graft: %w", err)
	}
	var path []int32
	for _, pt := range displaced {
		path = path[:0]
		leafIdx, ref, remote := p.descend(r.Entry, pt.Coords, &path)
		p.expandPathBoxes(path, pt.Coords)
		if remote {
			p.expandRemoteBox(ref, pt.Coords)
			fwd = append(fwd, routed{ref: ref, pt: pt})
			p.points-- // the point leaves this partition
			continue
		}
		p.appendLocked(leafIdx, pt)
	}
	spill := p.capacityExceededLocked()
	p.mu.Unlock()
	var err error
	for _, f := range fwd {
		// Strictly downstream (frontier subtrees the trunk links to):
		// no lock held, the partition DAG cannot cycle.
		if _, cerr := p.t.call(p.id, host(f.ref), insertReq{Node: f.ref.Node, Point: f.pt}); cerr != nil && err == nil {
			err = cerr
		}
	}
	if spill {
		p.buildPartition()
	}
	if err != nil {
		return nil, err
	}
	return graftResp{OK: true}, nil
}

// installLocked moves a fragment into the arena (kdtree.Arena.Install:
// over the node at entry, or appended when entry < 0), accounts its
// points and registers the regions of the cross-partition subtrees it
// links to. Callers hold the write lock.
func (p *partition) installLocked(entry int32, frag []kdtree.Node, remote []RemoteBox) (int32, error) {
	root, err := p.Install(entry, frag)
	if err != nil {
		return 0, err
	}
	for i := range frag {
		p.points += len(frag[i].Bucket)
	}
	for _, e := range remote {
		p.cacheRemoteBox(e.Ref, e.Lo, e.Hi)
	}
	return root, nil
}
