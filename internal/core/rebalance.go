package core

import (
	"fmt"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// The paper observes that "once built, modifying or rebalancing a
// Kd-tree is a non-trivial task" (§III-B). This file makes it tractable
// for the distributed tree with a coordinated bulk-load: gather every
// point, reset the partitions, and bulk-load the points back into the
// now empty tree (bulkload.go: balanced build client-side, frontier
// subtrees on the data partitions, the routing trunk — with
// cross-partition links at the frontier — on the root partition).
//
// Rebalance is a maintenance operation: the caller must guarantee
// quiescence (no concurrent inserts or queries), as for any offline
// reorganization.

// collectReq gathers every point in the subtree rooted at Node,
// following cross-partition links.
type collectReq struct {
	Node int32
}

type collectResp struct {
	Points []kdtree.Point
}

// resetReq clears a partition's node arena.
type resetReq struct {
	// RootLeaf makes the partition re-create the tree root as an empty
	// leaf (only the root partition sets this).
	RootLeaf bool
}

type resetResp struct{}

// installReq installs a tree fragment into a partition's arena as a
// new subtree root (the other end of a direct link: a relocated leaf,
// a frontier subtree, a rebalanced trunk). Nodes is a kdtree fragment —
// Nodes[0] is the root, child refs with Part == kdtree.Local index
// Nodes, any other ref is a cross-partition link — and Remote carries
// the bounding box of each subtree those links lead to, so the
// installing partition can seed its remote-box cache: the region
// registers together with the link. The fragment is moved, not copied:
// the sender gives up its buckets and boxes. The response reports the
// root's arena index.
type installReq struct {
	Nodes  []kdtree.Node
	Remote []RemoteBox
}

type installResp struct {
	Node int32
}

func init() {
	cluster.RegisterMessage(collectReq{})
	cluster.RegisterMessage(collectResp{})
	cluster.RegisterMessage(resetReq{})
	cluster.RegisterMessage(resetResp{})
	cluster.RegisterMessage(installReq{})
	cluster.RegisterMessage(installResp{})
}

// handleCollect returns every point under Node.
func (p *partition) handleCollect(r collectReq) (any, error) {
	var pts []kdtree.Point
	if err := p.collectVisit(r.Node, &pts); err != nil {
		return nil, err
	}
	return collectResp{Points: pts}, nil
}

func (p *partition) collectVisit(idx int32, out *[]kdtree.Point) error {
	p.mu.RLock()
	n := p.Nodes[idx] // copy; the lock is released around remote calls
	p.mu.RUnlock()
	if n.Moved {
		return p.remoteCollect(n.Fwd, out)
	}
	if n.Leaf {
		*out = append(*out, n.Bucket...)
		return nil
	}
	for _, ref := range []kdtree.Ref{n.Left, n.Right} {
		if p.IsLocal(ref) {
			if err := p.collectVisit(ref.Node, out); err != nil {
				return err
			}
		} else if err := p.remoteCollect(ref, out); err != nil {
			return err
		}
	}
	return nil
}

func (p *partition) remoteCollect(ref kdtree.Ref, out *[]kdtree.Point) error {
	resp, err := p.t.call(p.id, host(ref), collectReq{Node: ref.Node})
	if err != nil {
		return err
	}
	*out = append(*out, resp.(collectResp).Points...)
	return nil
}

// handleReset clears the partition, remote-box cache included (the
// links it guarded are gone with the arena).
func (p *partition) handleReset(r resetReq) (any, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Nodes = nil
	p.points = 0
	p.migrating = nil
	p.remoteBoxes = nil
	if r.RootLeaf {
		p.Nodes = []kdtree.Node{{Leaf: true}}
	}
	return resetResp{}, nil
}

// handleInstall appends a fragment to the arena as a new subtree root.
func (p *partition) handleInstall(r installReq) (any, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	root, err := p.installLocked(-1, r.Nodes, r.Remote)
	if err != nil {
		return nil, fmt.Errorf("core: install: %w", err)
	}
	return installResp{Node: root}, nil
}

// Rebalance rebuilds the tree balanced, redistributing the data across
// all partitions (including any whose budget was never used): collect
// every point, reset the partitions, and install the balanced layout
// through the bulk loader's installer — the tree is empty again, and
// the only difference from a first BulkLoad is that every data
// partition is a target. It requires quiescence.
func (t *Tree) Rebalance() error {
	root := t.rootPartition()
	resp, err := t.call(cluster.ClientID, root.id, collectReq{Node: 0})
	if err != nil {
		return fmt.Errorf("core: rebalance collect: %w", err)
	}
	pts := resp.(collectResp).Points

	// Make every budgeted partition available to the new layout.
	t.allocPartitions(t.cfg.MaxPartitions)
	t.mu.RLock()
	ids := make([]cluster.NodeID, len(t.parts))
	for i, p := range t.parts {
		ids[i] = p.id
	}
	t.mu.RUnlock()
	for _, id := range ids {
		if _, err := t.call(cluster.ClientID, id, resetReq{RootLeaf: id == root.id}); err != nil {
			return fmt.Errorf("core: rebalance reset: %w", err)
		}
	}
	t.size.Store(0)
	if len(pts) == 0 {
		return nil
	}
	ok, err := t.installBalanced(pts, func() []cluster.NodeID { return ids[1:] })
	if err != nil {
		return fmt.Errorf("core: rebalance: %w", err)
	}
	if !ok {
		return fmt.Errorf("core: rebalance: root entry leaf changed during the install; quiescence violated")
	}
	t.size.Store(int64(len(pts)))
	return nil
}
