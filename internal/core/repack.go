package core

import (
	"context"
	"fmt"
	"sort"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// Background repacking: spill-time placement decides with the boxes it
// has when a partition overflows, and the layout drifts as the corpus
// grows — a leaf adopted early can end up far from everything else its
// partition hosts. Tree.Repack is the budget-limited corrector: it
// scans every partition's leaf boxes, scores each movable leaf with the
// same placement kernel the spill path uses (its home partition priced
// as if the leaf were absent), and migrates the worst-placed leaves
// over the adopt handshake — while queries and inserts keep running.
//
// The migration of one leaf is phased so no fabric call happens under
// the partition lock (the lockedcall invariant; unlike a spill, the
// destination here is a live partition whose handlers can block on this
// one, so holding the lock across the call could deadlock):
//
//	pin    (write lock)  validate the leaf is still movable, mark it
//	                     migrating — splits defer, spills skip it —
//	                     and snapshot the bucket and box;
//	adopt  (no lock)     ship the snapshot to the destination; the
//	                     adopted node is unreachable until commit, so
//	                     queries see exactly one copy throughout;
//	drain  (loop)        forward points that raced into the live bucket
//	                     since the snapshot as ordinary inserts to the
//	                     adopted node (no lock held during the calls);
//	commit (write lock)  when no unforwarded delta remains: flip the
//	                     parent edge to the remote ref, cache the box
//	                     (remoteBoxes stays exact: the destination's
//	                     box is the shipped snapshot expanded by the
//	                     same deltas), tombstone the leaf.
//
// On a fabric error after adoption the migration aborts: the source
// keeps every point (nothing was unlinked), and the orphaned adopted
// bucket stays unreachable on the destination — visible only in its
// point counters, consistent with the async path's at-most-once
// contract on a failing fabric.
//
// The partition graph must stay acyclic. Query and insert handlers
// hold their partition's lock across descending cross-partition calls
// (the justified lockedcall exception: hops strictly descend the
// partition DAG), so a migrated edge that made a destination reach
// back into its source would create a lock-order cycle — two queries
// entering from opposite ends plus pending writers deadlock the pair.
// Spills cannot close cycles (their targets are fresh, edge-less
// partitions), so the repacker is the only writer of back-edge risk:
// the scan reports each partition's outgoing edges, the planner
// rejects any move whose destination already reaches its source, and
// accepted moves extend the graph as the plan builds. Passes are
// serialized (t.repackMu) so two planners cannot interleave edges.

// handleRepackScan summarizes the partition's local leaves under the
// read lock. Boxes are copied — the coordinator reads them after the
// lock is gone.
func (p *partition) handleRepackScan() (any, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	movable := make(map[int32]bool)
	resp := repackScanResp{Points: p.points}
	out := make(map[cluster.NodeID]bool)
	for i := range p.Nodes {
		n := &p.Nodes[i]
		switch {
		case n.Moved:
			out[host(n.Fwd)] = true
		case !n.Leaf:
			for _, ref := range []kdtree.Ref{n.Left, n.Right} {
				if p.movableLocked(ref) {
					movable[ref.Node] = true
				} else if !p.IsLocal(ref) {
					out[host(ref)] = true
				}
			}
		}
	}
	for i := range p.Nodes {
		if n := &p.Nodes[i]; n.Leaf && n.Lo != nil {
			resp.Leaves = append(resp.Leaves, leafSummary{
				Node:    int32(i),
				Points:  len(n.Bucket),
				Lo:      append([]float64(nil), n.Lo...),
				Hi:      append([]float64(nil), n.Hi...),
				Movable: movable[int32(i)],
			})
		}
	}
	for id := range out {
		resp.Out = append(resp.Out, id)
	}
	return resp, nil
}

// reaches reports whether `to` is reachable from `from` in the
// partition edge graph (including from == to).
func reaches(adj map[cluster.NodeID][]cluster.NodeID, from, to cluster.NodeID) bool {
	if from == to {
		return true
	}
	seen := map[cluster.NodeID]bool{from: true}
	stack := []cluster.NodeID{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range adj[cur] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// movableParentLocked validates that node is currently a movable leaf
// and locates its single in-edge: the local routing parent whose child
// ref points at it. Callers hold the write lock.
func (p *partition) movableParentLocked(node int32) (parent int32, right bool, ok bool) {
	if node < 0 || int(node) >= len(p.Nodes) {
		return 0, false, false
	}
	self := p.Ref(node)
	if !p.movableLocked(self) || p.Nodes[node].Lo == nil {
		return 0, false, false
	}
	for i := range p.Nodes {
		q := &p.Nodes[i]
		if q.Leaf || q.Moved {
			continue
		}
		if q.Left == self {
			return int32(i), false, true
		}
		if q.Right == self {
			return int32(i), true, true
		}
	}
	return 0, false, false
}

// handleMigrate runs the phased migration of one leaf; see the file
// comment for the protocol. The parent edge found at pin time stays
// valid through the drain: it can only change via a spill or a split of
// this leaf, and both are excluded while the leaf is marked migrating.
func (p *partition) handleMigrate(r migrateReq) (any, error) {
	if r.Dest == p.id {
		return migrateResp{}, nil
	}

	// Pin: validate and mark under the write lock; snapshot the bucket
	// and its exact box.
	p.mu.Lock()
	parent, right, ok := p.movableParentLocked(r.Node)
	if !ok {
		p.mu.Unlock()
		return migrateResp{}, nil
	}
	if p.migrating == nil {
		p.migrating = make(map[int32]bool)
	}
	p.migrating[r.Node] = true
	// The snapshot ships as a one-node fragment with owned copies of the
	// bucket and the box: the live leaf keeps absorbing inserts.
	snapshot := copyNodes(p.Nodes[r.Node : r.Node+1])
	p.mu.Unlock()

	abort := func() (any, error) {
		p.mu.Lock()
		delete(p.migrating, r.Node)
		p.mu.Unlock()
		return migrateResp{}, nil
	}

	// Adopt: ship the snapshot with no lock held. The destination is a
	// live partition — this call must never run under p.mu.
	sent := len(snapshot[0].Bucket)
	resp, err := p.t.call(p.id, r.Dest, installReq{Entry: -1, Nodes: snapshot})
	if err != nil {
		return abort()
	}
	ref := refTo(r.Dest, resp.(installResp).Node)

	// Drain and commit: forward whatever raced into the live bucket
	// since the snapshot, then commit atomically once no unforwarded
	// delta remains.
	for {
		p.mu.Lock()
		leaf := &p.Nodes[r.Node]
		if len(leaf.Bucket) == sent {
			delete(p.migrating, r.Node)
			moved := p.relocateLocked(parent, right, r.Node, ref)
			p.mu.Unlock()
			return migrateResp{Moved: true, Points: moved}, nil
		}
		delta := append([]kdtree.Point(nil), leaf.Bucket[sent:]...)
		sent = len(leaf.Bucket)
		p.mu.Unlock()
		for _, pt := range delta {
			if _, err := p.t.call(p.id, r.Dest, insertReq{Node: ref.Node, Point: pt}); err != nil {
				return abort()
			}
		}
	}
}

// RepackConfig bounds one background repacking pass.
type RepackConfig struct {
	// MaxMoves caps the leaf migrations this pass may execute; a value
	// <= 0 moves nothing (the pass only returns zero stats).
	MaxMoves int
	// MinGain is the minimum placement-score improvement (home score
	// minus best score, on the kernel's normalized scale) a move must
	// promise. The default 0 still requires a strictly positive gain.
	MinGain float64
}

// RepackStats reports one repacking pass.
type RepackStats struct {
	Scanned     int // movable leaves considered
	Moved       int // migrations committed
	MovedPoints int // points those migrations relocated
	Rejected    int // moves refused: validation, the fabric, or a cycle-closing edge
}

// Repack runs one budget-limited background repacking pass; see the
// file comment. It is safe to run while queries and inserts proceed —
// query results are unaffected (exact k-NN and range results do not
// depend on which partition hosts which subtree), and the box caches
// stay exact, which the repack tests assert with the PR 5 invariant
// checks. The context bounds the pass between migrations; a pass cut
// short leaves the tree fully consistent.
func (t *Tree) Repack(ctx context.Context, cfg RepackConfig) (RepackStats, error) {
	var st RepackStats
	if cfg.MaxMoves <= 0 {
		return st, nil
	}
	// One pass at a time: the acyclicity check below reasons over the
	// edge graph as this pass extends it, which two interleaved planners
	// would invalidate. Spills stay safe concurrently — their edges go
	// to fresh, edge-less partitions and cannot close a cycle.
	t.repackMu.Lock()
	defer t.repackMu.Unlock()
	t.mu.RLock()
	parts := append([]*partition(nil), t.parts...)
	t.mu.RUnlock()
	if len(parts) < 2 {
		return st, nil
	}

	ids := make([]cluster.NodeID, len(parts))
	scans := make([]repackScanResp, len(parts))
	for i, p := range parts {
		//semtree:allow lockedcall: repackMu only serializes repack passes; no handler or query path acquires it, so no lock cycle is possible
		resp, err := t.callCtx(ctx, cluster.ClientID, p.id, repackScanReq{})
		if err != nil {
			return st, fmt.Errorf("core: repack scan: %w", err)
		}
		ids[i] = p.id
		scans[i] = resp.(repackScanResp)
	}

	// The kernel's target view: one union box + load per partition.
	targets := make([]placeTarget, len(parts))
	for i, s := range scans {
		tg := placeTarget{id: ids[i], points: s.Points}
		for _, l := range s.Leaves {
			tg.lo, tg.hi = kdtree.UnionBox(tg.lo, tg.hi, l.Lo, l.Hi)
		}
		targets[i] = tg
	}

	// The edge graph for the acyclicity constraint (see the file
	// comment): a leaf may only move to a destination that cannot reach
	// back into its source partition.
	adj := make(map[cluster.NodeID][]cluster.NodeID, len(parts))
	for i, s := range scans {
		adj[ids[i]] = s.Out
	}

	// Score every movable leaf against every *legal* partition, its
	// home priced as if the leaf were absent (union of its siblings),
	// so a leaf that alone stretches its partition's box sees its true
	// cost of staying. Candidates keep the kernel's load and hop terms,
	// so the repacker converges toward the same layout spill-time
	// placement aims for.
	type planned struct {
		part   cluster.NodeID
		node   int32
		points int
		gain   float64
		dest   cluster.NodeID
	}
	var plan []planned
	for i, s := range scans {
		for _, l := range s.Leaves {
			if !l.Movable {
				continue
			}
			st.Scanned++
			home := placeTarget{id: ids[i], points: s.Points - l.Points}
			for _, o := range s.Leaves {
				if o.Node == l.Node {
					continue
				}
				home.lo, home.hi = kdtree.UnionBox(home.lo, home.hi, o.Lo, o.Hi)
			}
			cand := make([]placeTarget, len(targets))
			copy(cand, targets)
			cand[i] = home
			scores := placeScores(placeBox{lo: l.Lo, hi: l.Hi, points: l.Points}, cand, t.model.hopToNs)
			best := i
			for j, sc := range scores {
				if j != i && reaches(adj, ids[j], ids[i]) {
					continue // the edge i→j would close a cycle
				}
				if sc < scores[best] {
					best = j
				} else if sc == scores[best] && j < best {
					best = j
				}
			}
			if best == i {
				continue
			}
			gain := scores[i] - scores[best]
			if gain <= cfg.MinGain {
				continue
			}
			plan = append(plan, planned{part: ids[i], node: l.Node, points: l.Points, gain: gain, dest: ids[best]})
		}
	}
	//semtree:allow boundaryonce: maintenance-time move ranking for the repack budget; not on the query-result path
	sort.Slice(plan, func(a, b int) bool {
		if plan[a].gain != plan[b].gain {
			return plan[a].gain > plan[b].gain
		}
		if plan[a].part != plan[b].part {
			return plan[a].part < plan[b].part
		}
		return plan[a].node < plan[b].node
	})
	// Select under the budget. Destinations were chosen against the
	// scan-time graph; each accepted move extends the working graph, so
	// re-check here — a later move whose edge a just-accepted one made
	// cycle-closing is refused, not executed.
	selected := plan[:0]
	for _, mv := range plan {
		if len(selected) == cfg.MaxMoves {
			break
		}
		if reaches(adj, mv.dest, mv.part) {
			st.Rejected++
			continue
		}
		adj[mv.part] = append(adj[mv.part], mv.dest)
		selected = append(selected, mv)
	}

	for _, mv := range selected {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		//semtree:allow lockedcall: repackMu only serializes repack passes; no handler or query path acquires it, so no lock cycle is possible
		resp, err := t.callCtx(ctx, cluster.ClientID, mv.part, migrateReq{Node: mv.node, Dest: mv.dest})
		if err != nil {
			st.Rejected++
			continue
		}
		if mr := resp.(migrateResp); mr.Moved {
			st.Moved++
			st.MovedPoints += mr.Points
		} else {
			st.Rejected++
		}
	}
	return st, nil
}
