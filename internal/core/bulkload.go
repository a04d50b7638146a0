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
//     the trunk onto the root partition's entry leaf (installBalanced;
//     Rebalance is a snapshot and a reset followed by the same call) —
//     safe against concurrent inserts: the graft merges any points that
//     raced into the entry leaf and refuses (falling back to the merge
//     path) if the root stopped being a leaf.
//   - Live tree: send the batch in chunks through the one ingest
//     protocol a single insert takes (handleBulkAdd, partition.go), but
//     under the Graft landing policy: each destination leaf is replaced
//     with a balanced fragment bulk-built over (bucket ∪ assigned
//     points) in one step — no per-point split cascade — and the
//     entries that leave the partition forward as nested Graft batches.
//
// Both paths keep the region invariant: fragment boxes come out of the
// kernel's bulk builders (kdtree.BulkLoad, kdtree.Arena.Graft) exact,
// and every box on a descent path expands before the point lands,
// exactly as single inserts do.

// DefaultBulkChunk is the per-message batch size of the bulk merge
// path. Chunking bounds message size; each chunk takes at most one
// write lock per partition it touches.
const DefaultBulkChunk = 2048

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
		// Fresh partitions only, and only when one partition hosting the
		// whole batch would trip the resource condition anyway.
		targets := func() []cluster.NodeID {
			if c := t.cfg.PartitionCapacity; c == 0 || len(pts) <= c {
				return nil
			}
			return t.allocPartitions(t.cfg.MaxPartitions)
		}
		//semtree:allow lockedcall: bulkMu only serializes bulk passes; no handler or query path acquires it, so no lock cycle is possible
		ok, err := t.installBalanced(pts, targets)
		if err != nil {
			return fmt.Errorf("core: bulk load: %w", err)
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

// installBalanced is the one installer of a client-built balanced
// layout, shared by BulkLoad on an empty tree and Rebalance: balanced
// build over pts, frontier cut, placement-kernel assignment, one
// install per frontier subtree, trunk graft on the root
// partition's entry leaf. targets names the data partitions the
// frontier may spread over — the only thing the two callers differ in —
// and is asked only once the build turned out to have a frontier; with
// none, the whole tree grafts onto the root (the install handler runs
// the capacity check after a graft, so a root pushed over its capacity
// still spills normally). It reports ok=false — with any partial installs
// undone — when the entry leaf stopped being a leaf while the
// client-side build ran: points that merely raced into it are merged
// by the graft.
func (t *Tree) installBalanced(pts []kdtree.Point, targets func() []cluster.NodeID) (bool, error) {
	seq, err := kdtree.BulkLoad(pts, t.cfg.Dim, t.cfg.BucketSize)
	if err != nil {
		return false, fmt.Errorf("build: %w", err)
	}
	req := installReq{Entry: 0, Frag: seq.Arena}
	var used []cluster.NodeID
	undo := func() {
		for _, id := range used {
			// The partitions hold only our fragments; reset precisely
			// undoes the install. They stay allocated (empty) and rejoin
			// the layout through rebalance.
			_ = t.reset(id, false)
		}
	}
	if !seq.Nodes[0].Leaf {
		if tg := targets(); len(tg) > 0 {
			if req.Frag, req.Remote, used, err = t.installFrontier(&seq.Arena, tg); err != nil {
				undo()
				return false, fmt.Errorf("install: %w", err)
			}
		}
	}
	resp, err := t.call(cluster.ClientID, t.rootPartition().id, req)
	if err != nil {
		undo()
		return false, fmt.Errorf("root graft: %w", err)
	}
	if !resp.(installResp).OK {
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
// fragments. Each fragment is cut from the arena with exactly its
// points; the arena is left as it was.
func (t *Tree) installFrontier(a *kdtree.Arena, targets []cluster.NodeID) (trunk kdtree.Arena, remote []RemoteBox, used []cluster.NodeID, err error) {
	frontier := cutFrontier(a, len(targets))
	subs := make([]placeBox, len(frontier))
	for i, idx := range frontier {
		lo, hi := a.Box(idx)
		subs[i] = placeBox{lo: lo, hi: hi, points: a.Count(idx)}
	}
	assign := t.assignTargets(subs, targets)
	cut := make(map[int32]kdtree.Ref, len(frontier))
	for i, idx := range frontier {
		resp, err := t.call(cluster.ClientID, assign[i], installReq{Entry: -1, Frag: a.Extract(idx, nil)})
		if err != nil {
			return kdtree.Arena{}, nil, used, err
		}
		used = append(used, assign[i])
		ref := refTo(assign[i], resp.(installResp).Node)
		cut[idx] = ref
		remote = append(remote, RemoteBox{Ref: ref, Lo: subs[i].lo, Hi: subs[i].hi})
	}
	return a.Extract(0, cut), remote, used, nil
}

// bulkMerge streams the batch into a live tree in chunks, each chunk a
// synchronous Graft-policy bulkAddReq entering at the root.
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
		if _, err := t.call(cluster.ClientID, root.id, bulkAddReq{Entries: entriesAt(0, pts[start:end]), Policy: landGraft}); err != nil {
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

// handleInstall moves a fragment into the arena: appended as a new
// subtree root when Entry < 0, grafted over the leaf at Entry otherwise.
// The kernel validates the fragment before anything mutates, so a
// malformed one never leaves a half-installed arena. Points that were
// already in a grafted-over leaf — concurrent inserts that raced the
// client-side build — go through the router again, entering at the
// installed fragment's root, and land as inserts do (Append); the ones
// whose route now leaves the partition (to the frontier subtrees the
// trunk links to) forward as Append batches after the lock is released.
// Only a graft runs the capacity check: an appended fragment was put
// here by a spill or the balanced installer, which chose this partition
// for it.
func (p *partition) handleInstall(r installReq) (any, error) {
	p.mu.Lock()
	graft := r.Entry >= 0
	var displaced []batchEntry
	if graft {
		if int(r.Entry) >= len(p.Nodes) {
			p.mu.Unlock()
			return nil, fmt.Errorf("core: install: entry %d out of range", r.Entry)
		}
		if !p.Nodes[r.Entry].Leaf {
			p.mu.Unlock()
			return installResp{}, nil
		}
		displaced = entriesAt(r.Entry, p.AppendBucket(nil, r.Entry))
	}
	root, err := p.installLocked(r.Entry, &r.Frag, r.Remote)
	if err != nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("core: install: %w", err)
	}
	fw, landed := p.routeLocked(displaced, p.Append)
	p.points -= len(displaced) - landed // the rest leave this partition
	spill := graft && p.capacityExceededLocked()
	p.mu.Unlock()
	err = p.forward(fw, landAppend)
	if spill {
		p.buildPartition()
	}
	if err != nil {
		return nil, err
	}
	return installResp{Node: root, OK: true}, nil
}

// installLocked moves a fragment into the arena (kdtree.Arena.Install:
// over the node at entry, or appended when entry < 0), accounts its
// points and registers the regions of the cross-partition subtrees it
// links to. Callers hold the write lock.
func (p *partition) installLocked(entry int32, frag *kdtree.Arena, remote []RemoteBox) (int32, error) {
	points := 0
	for i := range frag.Nodes {
		points += len(frag.Nodes[i].Slots)
	}
	root, err := p.Install(entry, frag)
	if err != nil {
		return 0, err
	}
	p.points += points
	for _, e := range remote {
		p.cacheRemoteBox(e.Ref, e.Lo, e.Hi)
	}
	return root, nil
}
