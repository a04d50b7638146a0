package core

import (
	"fmt"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// The paper observes that "once built, modifying or rebalancing a
// Kd-tree is a non-trivial task" (§III-B). This file makes it tractable
// for the distributed tree with a coordinated bulk-load: gather every
// point from a snapshot, reset the partitions (a restore of the empty
// state), and bulk-load the points back into the now empty tree
// (bulkload.go: balanced build client-side, frontier subtrees on the
// data partitions, the routing trunk — with cross-partition links at
// the frontier — on the root partition).
//
// Rebalance is a maintenance operation: the caller must guarantee
// quiescence (no concurrent inserts or queries), as for any offline
// reorganization.

// Rebalance rebuilds the tree balanced, redistributing the data across
// all partitions (including any whose budget was never used): snapshot
// the tree and gather its points, reset every partition, and install
// the balanced layout through the bulk loader's installer — the tree is
// empty again, and the only difference from a first BulkLoad is that
// every data partition is a target. It requires quiescence: a root
// that changed under the install refuses it (ErrRequestRefused). Once
// the root is reset the points live only here, so a reset or install
// that fails after that loads them back through the merge path before
// its error is returned, and the failed Rebalance leaves every point
// indexed, just not rebalanced — unless the re-load fails too: then
// the points it had not landed are lost to the tree, and the error
// wraps both causes. A tree whose links dangle — a root graft that
// applied but lost every reply, its data partitions undone — returns an
// error wrapping ErrSnapshotCorrupt and changes nothing. Anything else
// a snapshot's Validate refuses is what Rebalance repairs: an install
// whose undo reset was lost before delivery leaves an orphan, which no
// link reaches but Len() counts.
func (t *Tree) Rebalance() error {
	snap, err := t.Snapshot()
	var pts []kdtree.Point
	if err == nil {
		pts, err = snap.pointsUnder(kdtree.Ref{})
	}
	if err != nil {
		return fmt.Errorf("core: rebalance snapshot: %w", err)
	}
	coords, pids, err := kdtree.Gather(pts, t.cfg.Dim)
	if err != nil {
		return fmt.Errorf("core: rebalance: %w", err) // the snapshot's own points: not reached
	}

	// Make every budgeted partition available to the new layout.
	t.allocPartitions(t.cfg.MaxPartitions)
	t.mu.RLock()
	ids := make([]cluster.NodeID, len(t.parts))
	for i, p := range t.parts {
		ids[i] = p.id
	}
	t.mu.RUnlock()
	if err := t.reset(ids[0], true); err != nil {
		return fmt.Errorf("core: rebalance reset: %w", err) // nothing has changed yet
	}
	if err := t.rebuild(coords, pids, ids[1:]); err != nil {
		err = fmt.Errorf("core: rebalance: %w", err)
		if merr := t.bulkMerge(detached, coords, pids); merr != nil {
			return fmt.Errorf("%w; re-loading its %d points: %w", err, len(pids), merr)
		}
		return err
	}
	return nil
}

// rebuild resets the data partitions and installs the balanced layout
// over the rows into the (already reset) root and them.
func (t *Tree) rebuild(coords []float64, ids []uint64, data []cluster.NodeID) error {
	for _, id := range data {
		if err := t.reset(id, false); err != nil {
			return fmt.Errorf("reset: %w", err)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	ok, err := t.installBalanced(coords, ids, func() []cluster.NodeID { return data })
	if err == nil && !ok {
		err = fmt.Errorf("%w: root entry leaf changed during the install; quiescence violated", ErrRequestRefused)
	}
	return err
}

// reset empties a partition by restoring the empty state over it; the
// root partition keeps the tree root, as one empty leaf.
func (t *Tree) reset(id cluster.NodeID, root bool) error {
	st := kdtree.Arena{Self: int32(id), Dim: t.cfg.Dim}
	if root {
		st.AddLeaf()
	}
	_, err := t.call(cluster.ClientID, id, restoreReq{State: st})
	return err
}
