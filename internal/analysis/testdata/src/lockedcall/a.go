package lockedcall

import (
	"context"
	"sync"

	"cluster"
)

type part struct {
	mu     sync.Mutex
	state  sync.RWMutex
	fab    cluster.Fabric
	notify chan int
}

func (p *part) bad(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.fab.Call(ctx, 1, 2, nil) // want "fabric Call while p.mu held"
	return err
}

func (p *part) badRLock(ctx context.Context) {
	p.state.RLock()
	defer p.state.RUnlock()
	_, _ = p.fab.Call(ctx, 1, 2, nil) // want "fabric Call while p.state held"
}

func (p *part) badSend() {
	p.mu.Lock()
	p.notify <- 1 // want "channel send while p.mu held"
	p.mu.Unlock()
}

func (p *part) remote(ctx context.Context) error {
	_, err := cluster.CallRetry(ctx, p.fab, 1, 2, nil, 3)
	return err
}

func (p *part) badTransitive(ctx context.Context) {
	p.mu.Lock()
	_ = p.remote(ctx) // want "call to remote, which reaches the fabric, while p.mu held"
	p.mu.Unlock()
}

func (p *part) legalAfterUnlock(ctx context.Context) error {
	p.mu.Lock()
	p.mu.Unlock()
	_, err := p.fab.Call(ctx, 1, 2, nil)
	return err
}

func (p *part) legalEarlyReturnBranch(ctx context.Context, empty bool) error {
	p.mu.Lock()
	if empty {
		p.mu.Unlock()
		_, err := p.fab.Call(ctx, 1, 2, nil)
		return err
	}
	_ = p.remote // method value, not a call
	p.mu.Unlock()
	return nil
}

func (p *part) legalAsync(ctx context.Context) {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		_, _ = p.fab.Call(ctx, 1, 2, nil)
	}()
}

func (p *part) allowed(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	//semtree:allow lockedcall: remote hops strictly descend the partition DAG; no lock cycle is possible
	_, err := p.fab.Call(ctx, 1, 2, nil)
	return err
}

// The migration shape: a repack handler must never drain a bucket to
// its destination while the partition write lock is held — the
// destination's reply path can need this partition, and the call
// blocks every query for the whole round trip.
func (p *part) badMigrateDrain(ctx context.Context, bucket []int) error {
	p.state.Lock()
	defer p.state.Unlock()
	for range bucket {
		if _, err := p.fab.Call(ctx, 1, 2, nil); err != nil { // want "fabric Call while p.state held"
			return err
		}
	}
	return nil
}

// The bulk-adopt shape: a bulk-add handler descends and grafts the
// local entries under one write lock, but entries that resolve to a
// foreign child must be forwarded with the lock released — the
// destination may be mid-spill and call back into this partition.
func (p *part) badBulkAdopt(ctx context.Context, batch []int) error {
	p.state.Lock()
	defer p.state.Unlock()
	for _, e := range batch {
		if e%2 == 0 {
			continue // grafted locally
		}
		if _, err := p.fab.Call(ctx, 1, 2, nil); err != nil { // want "fabric Call while p.state held"
			return err
		}
	}
	return nil
}

// The legal bulk-adopt version: group the foreign entries under the
// lock, forward the groups after the unlock.
func (p *part) legalBulkAdopt(ctx context.Context, batch []int) error {
	p.state.Lock()
	var remote []int
	for _, e := range batch {
		if e%2 == 0 {
			continue // grafted locally
		}
		remote = append(remote, e)
	}
	p.state.Unlock()
	for range remote {
		if _, err := p.fab.Call(ctx, 1, 2, nil); err != nil {
			return err
		}
	}
	return nil
}

// The legal phased version: snapshot under the lock, drain with no
// lock held, re-lock only to commit the parent-edge flip.
func (p *part) legalMigratePhased(ctx context.Context, bucket []int) error {
	p.state.Lock()
	snapshot := append([]int(nil), bucket...)
	p.state.Unlock()
	for range snapshot {
		if _, err := p.fab.Call(ctx, 1, 2, nil); err != nil {
			return err
		}
	}
	p.state.Lock()
	snapshot = snapshot[:0]
	p.state.Unlock()
	return nil
}
