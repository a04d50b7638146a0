package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

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
// Every point is checked before anything is built or sent: one of
// another dimension or with a NaN coordinate fails the whole call.
// The call is synchronous: when it returns, every point is queryable.
// Concurrent BulkLoad calls serialize; concurrent Insert and queries
// are safe throughout. The points are gathered into a block of rows
// (kdtree.Gather) and take BulkLoadRows' path, so the input slice and
// the coordinates it points at are not modified. As for Insert, a point
// ID is stored at most once: the batch holds no ID twice and none the
// tree already holds.
func (t *Tree) BulkLoad(ctx context.Context, pts []kdtree.Point) error {
	for i, p := range pts {
		if err := checkCoords(p.Coords, t.cfg.Dim); err != nil {
			return fmt.Errorf("core: bulk load: point %d: %w", i, err)
		}
	}
	coords, ids, err := kdtree.Gather(pts, t.cfg.Dim)
	if err != nil {
		return fmt.Errorf("core: bulk load: %w", err)
	}
	return t.bulkLoad(ctx, coords, ids)
}

// BulkLoadRows is BulkLoad over points given as rows: ids[i] is the ID
// of the point whose Dim coordinates are coords[i*Dim:(i+1)*Dim]. On
// an empty tree the balanced build adopts both slices
// (kdtree.BulkLoadRows): it moves their rows in place into leaf order,
// and with a single partition they become its blocks. The caller hands
// them over and must not write them again; a row keeps its coordinates
// and ID together, so reading them afterwards still reads the same
// points, in another order. On a live tree they are only read. The IDs
// are BulkLoad's: none twice, none the tree already holds.
func (t *Tree) BulkLoadRows(ctx context.Context, coords []float64, ids []uint64) error {
	dim := t.cfg.Dim
	if len(coords) != dim*len(ids) {
		return fmt.Errorf("core: bulk load: %d coordinates for %d points of dimension %d", len(coords), len(ids), dim)
	}
	for i := range ids {
		if err := checkCoords(coords[i*dim:(i+1)*dim], dim); err != nil {
			return fmt.Errorf("core: bulk load: point %d: %w", i, err)
		}
	}
	return t.bulkLoad(ctx, coords, ids)
}

// bulkLoad is the bulk path over checked rows.
func (t *Tree) bulkLoad(ctx context.Context, coords []float64, ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	t.bulkMu.Lock()
	defer t.bulkMu.Unlock()
	if t.size.Load() == 0 {
		// Fresh partitions only, and only when one partition hosting the
		// whole batch would trip the resource condition anyway.
		targets := func() []cluster.NodeID {
			if c := t.cfg.PartitionCapacity; c == 0 || len(ids) <= c {
				return nil
			}
			return t.allocPartitions(t.cfg.MaxPartitions)
		}
		//semtree:allow lockedcall: bulkMu only serializes bulk passes; no handler or query path acquires it, so no lock cycle is possible
		ok, err := t.installBalanced(coords, ids, targets)
		if err != nil {
			return fmt.Errorf("core: bulk load: %w", err)
		}
		if ok {
			return nil
		}
		// The root grew under us (concurrent inserts split the entry
		// leaf while we were building): merge instead.
	}
	//semtree:allow lockedcall: bulkMu only serializes bulk passes; no handler or query path acquires it, so no lock cycle is possible
	return t.bulkMerge(ctx, coords, ids)
}

// installBalanced is the one installer of a client-built balanced
// layout, shared by BulkLoad on an empty tree and Rebalance: balanced
// build over the rows, frontier cut, placement-kernel assignment, one
// install per frontier subtree, trunk graft on the root
// partition's entry leaf. targets names the data partitions the
// frontier may spread over — the only thing the two callers differ in —
// and is asked only once the build turned out to have a frontier; with
// none, the whole tree grafts onto the root (the install handler runs
// the capacity check after a graft, so a root pushed over its capacity
// still spills normally). It reports ok=false — with any partial installs
// undone — when the entry leaf stopped being a leaf while the
// client-side build ran: points that merely raced into it are merged
// by the graft. A graft whose reply was lost is re-sent under its Seq
// and answered with the reply it gave, so a retry never mistakes its
// own trunk for a concurrent split.
//
// The undo resets every partition that was sent an install, whether
// or not its reply came back: a reply lost after the handler ran still
// left a fragment there. The targets hold nothing else — BulkLoad takes
// freshly allocated partitions and Rebalance resets its own first — so
// the reset removes exactly what this call put there (one lost before
// delivery leaves an orphan, which Rebalance repairs). A root graft that
// applied but lost every reply is out of its reach: the root keeps a
// trunk linking to the partitions the undo reset, and Rebalance then
// fails typed (its walk meets the dangling link).
func (t *Tree) installBalanced(coords []float64, ids []uint64, targets func() []cluster.NodeID) (bool, error) {
	seq, err := kdtree.BulkLoadRows(coords, ids, t.cfg.Dim, t.cfg.BucketSize)
	if err != nil {
		return false, fmt.Errorf("build: %w", err)
	}
	req := installReq{Seq: t.installs.Add(1), Entry: 0, Frag: seq.Arena}
	var sent []cluster.NodeID
	undo := func() {
		for _, id := range sent {
			// They stay allocated (empty) and rejoin the layout
			// through rebalance.
			_ = t.reset(id, false)
		}
	}
	if !seq.Nodes[0].Leaf {
		if tg := targets(); len(tg) > 0 {
			if req.Frag, sent, err = t.installFrontier(&seq.Arena, tg); err != nil {
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
// frontier gives every target a subtree, installs those
// (installSubtrees), and returns the trunk — everything above the
// frontier, each frontier subtree cut into a link to where it was
// installed, which keeps the subtree's box (kdtree.Arena.Extract) — and
// the partitions it sent an install to, on failure too.
func (t *Tree) installFrontier(a *kdtree.Arena, targets []cluster.NodeID) (trunk kdtree.Arena, sent []cluster.NodeID, err error) {
	frontier := cutFrontier(a, len(targets))
	refs, sent, errs := t.installSubtrees(cluster.ClientID, a, frontier, targets)
	if err = cmp.Or(errs...); err != nil {
		return kdtree.Arena{}, sent, err
	}
	cut := make(map[int32]kdtree.Ref, len(frontier))
	for i, idx := range frontier {
		cut[idx] = refs[i]
	}
	return a.Extract(0, cut), sent, nil
}

// installSubtrees, the one installer of a spill and of a balanced
// frontier, installs the subtree of a under each of roots (cut with
// exactly its points; a is only read) as a new subtree root on the
// target the placement kernel assigns it. It returns where each landed,
// the targets sent to in the order the roots first reach them, and each
// one's first failure, for the caller to undo; refs[i] names a node
// only if its target did not fail.
//
// "Using M−1 data partitions, we can perform in the best case M−1
// parallel operations" (§III-C): the targets install concurrently, one
// RunBatch item each, each receiving its subtrees in roots order, so it
// gets the same fragments in the same order — and hands back the same
// node indices — as a one-by-one install would. A target stops at its
// first failure; all have returned before this does.
func (t *Tree) installSubtrees(from cluster.NodeID, a *kdtree.Arena, roots []int32, targets []cluster.NodeID) (refs []kdtree.Ref, sent []cluster.NodeID, errs []error) {
	subs := make([]placeBox, len(roots))
	for i, idx := range roots {
		lo, hi := a.Box(idx)
		subs[i] = placeBox{lo: lo, hi: hi, points: a.Count(idx)}
	}
	refs = make([]kdtree.Ref, len(roots))
	var groups [][]int // root positions per target of sent
	for i, id := range t.assignTargets(subs, targets) {
		refs[i].Part = int32(id)
		g := slices.Index(sent, id)
		if g < 0 {
			g = len(sent)
			sent, groups, errs = append(sent, id), append(groups, nil), append(errs, nil)
		}
		groups[g] = append(groups[g], i)
	}
	_ = RunBatch(detached, len(groups), 0, func(g int) error { // each target's error is in errs
		for _, i := range groups[g] {
			resp, err := t.call(from, sent[g], installReq{Seq: t.installs.Add(1), Entry: -1, Frag: a.Extract(roots[i], nil)})
			if errs[g] = err; err != nil {
				return err
			}
			refs[i].Node = resp.(installResp).Node
		}
		return nil
	})
	return refs, sent, errs
}

// bulkMerge streams the rows into a live tree in chunks, each chunk a
// synchronous Graft-policy bulkAddReq entering at the root whose
// points are views of the rows.
func (t *Tree) bulkMerge(ctx context.Context, coords []float64, ids []uint64) error {
	root := t.rootPartition()
	dim := t.cfg.Dim
	for start := 0; start < len(ids); start += DefaultBulkChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(start+DefaultBulkChunk, len(ids))
		entries := make([]batchEntry, end-start)
		for i := range entries {
			j := start + i
			entries[i] = batchEntry{Point: kdtree.Point{Coords: coords[j*dim : (j+1)*dim : (j+1)*dim], ID: ids[j]}}
		}
		if _, err := t.call(cluster.ClientID, root.id, bulkAddReq{Entries: entries, Policy: landGraft}); err != nil {
			return fmt.Errorf("core: bulk merge: %w", err)
		}
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
// for it. An entry the arena does not have, a fragment the kernel
// rejects, one linking up the partition DAG, one naming a partition
// the tree does not have and one without a Seq are refused, and so is a
// fragment with a link anywhere but over node 0 of the root partition:
// only the balanced installer's trunk carries links, each with the box
// of the subtree it leads to, which the receiver cannot check.
//
// The install applied last is remembered, by its Seq, with its reply —
// a refused graft's too — under the write lock, before any displaced
// point forwards; the same Seq again is answered with that reply and
// changes nothing. So a retried spill relocates its leaf, and a retried
// root graft answers OK. One remembered install is enough: installs
// reach a partition one at a time from one sender (a spill and
// installFrontier both send theirs through installSubtrees, one
// RunBatch item per freshly allocated target, and bulkMu serializes the
// root graft).
func (p *partition) handleInstall(r installReq) (any, error) {
	if r.Seq == 0 {
		return nil, p.refuse("install: no Seq")
	}
	if err := p.t.linksHosted(&r.Frag); err != nil {
		return nil, p.refuse("install: %v", err)
	}
	if root := p.t.rootPartition(); (p != root || r.Entry != 0) && slices.ContainsFunc(r.Frag.Nodes, func(n kdtree.Node) bool { return n.Moved }) {
		return nil, p.refuse("install: a fragment with links grafts over node 0 of partition %d", root.id)
	}
	p.mu.Lock()
	if p.installed.seq == r.Seq {
		resp := p.installed.resp
		p.mu.Unlock()
		return resp, nil
	}
	graft := r.Entry >= 0
	var displaced []batchEntry
	if err := linksDown(&r.Frag, p.Self); err != nil {
		p.mu.Unlock()
		return nil, p.refuse("install: %v", err)
	}
	if graft {
		if err := p.checkNode(r.Entry); err != nil {
			p.mu.Unlock()
			return nil, err
		}
		if !p.Nodes[r.Entry].Leaf {
			p.installed.seq, p.installed.resp = r.Seq, installResp{}
			p.mu.Unlock()
			return installResp{}, nil
		}
		displaced = entriesAt(r.Entry, p.AppendBucket(nil, r.Entry))
	}
	root, err := p.installLocked(r.Entry, &r.Frag)
	if err != nil {
		p.mu.Unlock()
		return nil, p.refuse("install: %v", err)
	}
	resp := installResp{Node: root, OK: true}
	p.installed.seq, p.installed.resp = r.Seq, resp
	fw, landed := p.routeLocked(displaced, p.Append)
	p.addPoints(landed - len(displaced)) // the rest leave this partition
	spill := graft && p.capacityExceededLocked()
	p.mu.Unlock()
	err = p.forward(fw, landAppend)
	if spill {
		p.buildPartition()
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// installLocked moves a fragment into the arena (kdtree.Arena.Install:
// over the node at entry, or appended when entry < 0) and accounts its
// points. Callers hold the write lock.
func (p *partition) installLocked(entry int32, frag *kdtree.Arena) (int32, error) {
	points := 0
	for i := range frag.Nodes {
		points += len(frag.Nodes[i].Slots)
	}
	root, err := p.Install(entry, frag)
	if err != nil {
		return 0, err
	}
	p.addPoints(points)
	return root, nil
}

// linksHosted reports a link of frag naming a partition the tree does
// not host.
func (t *Tree) linksHosted(frag *kdtree.Arena) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return foreignLinks(frag, func(i int, r kdtree.Ref) error {
		if !slices.ContainsFunc(t.parts, func(p *partition) bool { return p.id == host(r) }) {
			return fmt.Errorf("node %d links to partition %d, which the tree does not have", i, r.Part)
		}
		return nil
	})
}
