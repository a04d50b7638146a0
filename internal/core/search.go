package core

import (
	"context"
	"sync"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// queryCtx is the per-query execution context of the k-nearest engine:
// the kernel traversal state (kdtree.Search: query, visit heap, local
// work counters) over the scratch result set, the remote subtrees the
// local traversal ran into, the fan-out wave they make up, the stats
// folded from downstream responses, and the collector state for
// parallel fan-outs. It is also the traversal's kdtree.Outside: the
// kernel hands it every reference that leaves the partition's arena,
// which is where the cross-partition protocol lives. Contexts are pooled
// — a query borrows one, traverses, copies its finds into a pooled reply
// and releases it — so a warmed search allocates nothing on a partition
// but the fan-out wave's goroutines.
type queryCtx struct {
	s       kdtree.Search
	rs      resultSet
	pending []pendingHop // remote subtrees deferred until the local bound is final
	wave    []waveCall   // the fan-out wave, by ascending partition (dispatchPending)

	// The query this context is bound to while borrowed: the handler's
	// ctx, partition and request, read by the Outside methods.
	ctx context.Context
	p   *partition
	r   knnReq

	// fwd is the request of this query's synchronous hops — a sequential
	// hop or the fan-out probe — sent by pointer (see knnReq); its Rs is
	// rs.Items, which stays still until the call returns.
	fwd knnReq

	// stats accumulates the folded stats of every downstream response
	// (plus, once the traversal is over, this partition's own counters
	// from s.Stats). Plain increments are only performed by the
	// traversal goroutine strictly before the fan-out goroutines
	// launch; the goroutines fold under mu.
	stats queryStats

	mu       sync.Mutex
	wg       sync.WaitGroup
	partials []*knnResp // the fan-out wave's replies, this query's until putQueryCtx releases them
	err      error
}

// pendingHop is one remote subtree the fan-out protocol deferred, with
// the guard it already passed (kdtree's visit guard: the exact squared
// min distance from the query to its link's box, < 0 when unconditional
// — a traversal that entered at the link) so the final local bound can
// still rule it out.
type pendingHop struct {
	ref     kdtree.Ref
	guardSq float64
}

// waveCall is one partition's share of a fan-out wave: the entries it
// continues at, the smallest of their guards, and the request its
// goroutine sends. A wave holds at most M−1 of them, so a slice kept in
// partition order stands in for a map.
type waveCall struct {
	part     cluster.NodeID
	minGuard float64
	entries  []knnEntry
	req      knnReq
}

var queryCtxPool = sync.Pool{New: func() any {
	c := new(queryCtx)
	c.s.RS = &c.rs.ResultSet
	return c
}}

func getQueryCtx(ctx context.Context, p *partition, r *knnReq) *queryCtx {
	c := queryCtxPool.Get().(*queryCtx)
	c.ctx, c.p, c.r = ctx, p, *r
	c.rs.reset(r.K, r.Rs)
	c.s.Reset(r.Query)
	c.pending = c.pending[:0]
	c.wave = c.wave[:0]
	c.stats = queryStats{}
	c.err = nil
	return c
}

// putQueryCtx releases the fan-out's replies, which only the query read,
// and drops every reference to the query before pooling the context.
func putQueryCtx(c *queryCtx) {
	for i, kr := range c.partials {
		knnResps.Put(kr)
		c.partials[i] = nil
	}
	c.partials = c.partials[:0]
	for i := range c.wave {
		c.wave[i].req = knnReq{}
	}
	c.ctx, c.p, c.r, c.fwd = nil, nil, knnReq{}, knnReq{}
	c.s.Query = nil
	queryCtxPool.Put(c)
}

// hop sends partition part, in c.fwd, a continuation at node or at
// entries — the paper's sequential hop, or the fan-out's probe — and
// offers its finds to the result set: the callee was seeded with the
// set as it stands, so the finds are exactly what its merged set held
// beyond ours. A reply that found nothing is a probe miss: the remote
// region was probed and contributed nothing — the work a tighter guard
// would have skipped outright. The reply is hop's once the call returns,
// and goes back to its pool once offered.
func (c *queryCtx) hop(part cluster.NodeID, node int32, entries []knnEntry) error {
	c.fwd = knnReq{Node: node, Query: c.r.Query, K: c.r.K, Rs: c.rs.Items, Seq: c.r.Seq, Entries: entries}
	resp, err := c.p.t.callCtx(c.ctx, c.p.id, part, &c.fwd)
	if err != nil {
		return err
	}
	kr := resp.(*knnResp)
	for _, n := range kr.Rs {
		c.rs.Offer(n)
	}
	c.stats.fold(kr.Stats)
	if len(kr.Rs) == 0 {
		c.stats.Misses++
	}
	knnResps.Put(kr)
	return nil
}

func (c *queryCtx) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// collect keeps a fan-out wave reply for the final merge. Each reply is
// judged a miss on its own finds — never against what other partials
// found — so the count does not depend on completion order.
func (c *queryCtx) collect(kr *knnResp) {
	c.mu.Lock()
	c.partials = append(c.partials, kr)
	c.stats.fold(kr.Stats)
	if len(kr.Rs) == 0 {
		c.stats.Misses++
	}
	c.mu.Unlock()
}

// Err is the kernel's periodic cancellation poll (kdtree.Outside): a
// non-nil error once the query is cancelled or past its deadline.
func (c *queryCtx) Err() error { return c.ctx.Err() }

// handleKNN implements the distributed k-nearest search (§III-B.3).
// The request carries the caller's current result set Rs (squared
// distances, see knnReq); the local traversal is the kernel's
// nearest-first loop (kdtree.Arena.KNearest) over the partition's
// arena, which reaches local and remote subtrees alike in order of
// their guards. Remote subtrees — the references the kernel hands to
// Follow — are handled two ways:
//
//   - Seq mode: the paper's sequential protocol — a synchronous fabric
//     call forwards Rs and offers the callee's finds to it before
//     continuing, so later pruning uses the tightest possible bound.
//   - Default (parallel): remote subtrees whose guard still crosses the
//     search ball are deferred until the local traversal finishes, then
//     re-checked against the now-final local bound, grouped by hosting
//     partition, and dispatched as one goroutine-backed fabric call per
//     partition (at most M−1 per wave), mirroring the range search's
//     border-node navigation (§III-B.4). The returned finds are merged
//     under the (Dist, ID) tie-break ordering.
//
// Both modes return identical result sets: the wave's seed and the
// deferred guard re-check only change how much work pruning saves (a
// remote may examine more candidates, never fewer), and every
// candidate either beats the final k-th best or is discarded on merge.
//
// Cancellation is checked between traversal strides (every 64 visited
// nodes), before each remote hop, and between fan-out waves; the fabric
// calls themselves carry ctx, so an expired query abandons in-flight
// partition replies at the transport instead of waiting them out. The
// wait on the fan-out WaitGroup is therefore bounded by the fabric's
// cancellation latency, which keeps the pooled context safe to reuse.
//
// The read lock is held for the whole local traversal, so references
// cannot go stale mid-search; the Seq-mode hops Follow issues under it
// only ever go downstream in the partition DAG (child partitions never
// call back up), so locking cannot cycle. The fan-out runs after the
// lock is released, exactly like handleRange's collector.
//
// The reply is the final set's finds (resultSet.finds): its entries
// that were not in the request's seed, by ID and distance alone, in a
// reply drawn from knnResps that the handler gives up on return.
func (p *partition) handleKNN(ctx context.Context, r *knnReq) (any, error) {
	if r.K <= 0 {
		return getKNNResp(), nil
	}
	c := getQueryCtx(ctx, p, r)
	defer putQueryCtx(c)
	p.mu.RLock()
	if err := p.checkQuery(r.Query, r.Node, r.Entries); err != nil {
		p.mu.RUnlock()
		return nil, err
	}
	if len(r.Entries) > 0 {
		// Fan-out continuation: the kernel visits the guarded entries
		// nearest first.
		for _, e := range r.Entries {
			c.s.Push(p.Ref(e.Node), e.GuardSq)
		}
	} else {
		c.s.Push(p.Ref(r.Node), -1)
	}
	start := time.Now()
	err := p.KNearest(&c.s, c)
	elapsed := time.Since(start)
	p.mu.RUnlock()
	c.stats.addLocal(c.s.Stats)
	if err == nil && c.stats.Msgs == 0 && c.stats.Nodes > 0 {
		// Hop-free traversal: pure local compute, the cost model's
		// per-node price observation (in Seq mode the traversal embeds
		// synchronous hops, which Msgs exposes — those runs are skipped).
		p.t.model.observeCompute(elapsed, c.stats.Nodes)
	}
	if err == nil {
		p.dispatchPending(c)
	}
	c.wg.Wait()
	if err == nil {
		err = c.err
	}
	if err != nil {
		return nil, err
	}
	for _, kr := range c.partials {
		c.rs.merge(kr.Rs)
	}
	out := getKNNResp()
	out.Rs = c.rs.finds(out.Rs, r.Rs)
	out.Stats = c.stats
	out.Stats.Parts++ // this partition's own handler execution
	return out, nil
}

// checkQuery refuses a query the arena cannot serve: a query point it
// refuses, or an entry node it does not have — every entry's when a
// k-NN continuation carries entries, else node. Callers hold the lock.
func (p *partition) checkQuery(q []float64, node int32, entries []knnEntry) error {
	if err := p.checkPoint(q); err != nil {
		return err
	}
	if len(entries) == 0 {
		return p.checkNode(node)
	}
	for _, e := range entries {
		if err := p.checkNode(e.Node); err != nil {
			return err
		}
	}
	return nil
}

// Follow hands a remote subtree off (kdtree.Outside); the kernel has
// already checked its guard against Rs. In Seq mode the call is
// synchronous and Rs travels with the request (hop); the callee's finds
// join ours and tighten all later pruning, the paper's protocol.
// Otherwise the subtree joins the pending list — with its guard, so the
// final local bound can still rule it out — for the per-partition
// fan-out after the local traversal.
func (c *queryCtx) Follow(ref kdtree.Ref, guardSq float64, _ bool) error {
	if c.r.Seq {
		return c.hop(host(ref), ref.Node, nil)
	}
	c.pending = append(c.pending, pendingHop{ref: ref, guardSq: guardSq})
	return nil
}

// dispatchPending resolves the remote subtrees the local traversal ran
// into, in three steps:
//
//  1. Re-check every deferred subtree against the now-final local bound
//     and group the survivors by hosting partition into the wave (one
//     message per partition — each wave stays within the paper's M−1
//     parallel operations, and the remote side prunes across its entries
//     with its own evolving bound).
//  2. Probe the most promising partition — the one holding the subtree
//     whose region has the smallest exact min-distance to the query
//     (true min-distance ranking; an unconditional link — the entry
//     of the traversal — ranks first; a tie goes to the lower
//     partition) —
//     *synchronously*, exactly
//     like the sequential protocol's first hop. Its finds tighten
//     the search ball, which usually rules most other partitions out;
//     when only one partition qualifies this degrades to the sequential
//     protocol and costs nothing extra.
//  3. Fan the remaining partitions out, each seeded with the tightened
//     Rs — which stays still until handleKNN has waited for them all —
//     and let handleKNN merge their finds. Every call but the last runs
//     on a goroutine of its own; the last runs on this one, as the probe
//     did, while the others are in flight.
//
// The context is re-checked before each wave; once it is done no
// further messages are dispatched and the error surfaces via c.err.
// Returning a dispatch error is handled by the caller via c.err.
func (p *partition) dispatchPending(c *queryCtx) {
	for _, f := range c.pending {
		if f.guardSq >= 0 && c.rs.Full() && c.rs.Worst() < f.guardSq {
			continue
		}
		g := c.waveFor(host(f.ref), f.guardSq)
		g.entries = append(g.entries, knnEntry{Node: f.ref.Node, GuardSq: f.guardSq})
	}
	if len(c.wave) == 0 {
		return
	}
	ctx := c.ctx
	if err := ctx.Err(); err != nil {
		c.fail(err)
		return
	}
	probe := 0
	for i := range c.wave {
		if c.wave[i].minGuard < c.wave[probe].minGuard {
			probe = i
		}
	}
	if err := c.hop(c.wave[probe].part, 0, c.wave[probe].entries); err != nil {
		c.fail(err)
		return
	}

	if err := ctx.Err(); err != nil {
		if len(c.wave) > 1 {
			c.fail(err)
		}
		return
	}
	seed := c.rs.Items
	var last *waveCall // the call to send once no other is left to start
	for i := range c.wave {
		g := &c.wave[i]
		if i == probe {
			continue
		}
		kept := g.entries[:0]
		for _, e := range g.entries {
			if e.GuardSq >= 0 && c.rs.Full() && c.rs.Worst() < e.GuardSq {
				continue // the probe's tightened ball rules it out
			}
			kept = append(kept, e)
		}
		if len(kept) == 0 {
			continue
		}
		g.req = knnReq{Query: c.r.Query, K: c.r.K, Rs: seed, Entries: kept}
		c.wg.Add(1)
		if last != nil {
			go c.fanOut(last.part, &last.req)
		}
		last = g
	}
	if last != nil {
		c.fanOut(last.part, &last.req)
	}
}

// waveFor returns the wave's call to part, claiming one in partition
// order — with a released call's entry capacity — when there is none,
// and lowers its smallest guard to guardSq.
func (c *queryCtx) waveFor(part cluster.NodeID, guardSq float64) *waveCall {
	i := 0
	for i < len(c.wave) && c.wave[i].part < part {
		i++
	}
	if i == len(c.wave) || c.wave[i].part != part {
		if len(c.wave) < cap(c.wave) {
			c.wave = c.wave[:len(c.wave)+1]
		} else {
			c.wave = append(c.wave, waveCall{})
		}
		for j := len(c.wave) - 1; j > i; j-- {
			c.wave[j], c.wave[j-1] = c.wave[j-1], c.wave[j]
		}
		c.wave[i].part, c.wave[i].minGuard, c.wave[i].entries = part, guardSq, c.wave[i].entries[:0]
	}
	g := &c.wave[i]
	g.minGuard = min(g.minGuard, guardSq)
	return g
}

// fanOut sends one wave call and keeps its reply for handleKNN's merge,
// on a goroutine of its own or, for a wave's last call, the handler's.
func (c *queryCtx) fanOut(part cluster.NodeID, req *knnReq) {
	defer c.wg.Done()
	resp, err := c.p.t.callCtx(c.ctx, c.p.id, part, req)
	if err != nil {
		c.fail(err)
		return
	}
	c.collect(resp.(*knnResp))
}

// handleRange implements the distributed range search (§III-B.4) over
// the kernel's range traversal (kdtree.Arena.Range): descending, both
// children are visited when |P[SI] − Sv| <= D; "if the current node is
// a border node, the navigation is performed in a parallel way": remote
// subtrees are queried on their own goroutines while the local side
// proceeds, and the partial result sets are merged on the way back.
// Matches carry squared distances and arrive unsorted;
// Tree.RangeSearch applies the single sort and sqrt (see rangeResp).
// Cancellation follows the k-NN handler's scheme: periodic checks in
// the local traversal, ctx-carrying fabric calls for the fan-outs. The
// read lock spans the local traversal; the hops issued under it only
// descend the partition DAG, so it cannot cycle.
func (p *partition) handleRange(ctx context.Context, r rangeReq) (any, error) {
	if r.D < 0 {
		return rangeResp{}, nil
	}
	col := &rangeCollector{ctx: ctx, p: p}
	col.s.Query, col.s.Radius = r.Query, r.D
	p.mu.RLock()
	err := p.checkQuery(r.Query, r.Node, nil)
	if err == nil {
		err = p.Range(&col.s, r.Node, col)
	}
	p.mu.RUnlock()
	col.wg.Wait()
	if err == nil {
		err = col.err
	}
	if err != nil {
		return nil, err
	}
	st := col.remote
	st.addLocal(col.s.Stats)
	st.Parts++
	for i := range col.s.Matches {
		col.s.Matches[i].Point.Coords = nil // no coordinate leaves the partition
	}
	return rangeResp{Neighbors: append(col.s.Matches, col.out...), Stats: st}, nil
}

// rangeCollector is one range query's execution state on a partition:
// the kernel traversal state (local matches and counters, owned by the
// traversal goroutine) plus the matches and stats of the remote
// fan-outs, which overlap the local traversal and therefore fold under
// mu; the two sides are combined only after the WaitGroup drains. It is
// the traversal's kdtree.Outside. The first failure — a failed hop, or
// ctx expiry — surfaces through Err at the kernel's next poll, so a
// cancelled range query stops descending instead of finishing the
// local walk.
type rangeCollector struct {
	s   kdtree.Search
	ctx context.Context
	p   *partition

	mu     sync.Mutex
	wg     sync.WaitGroup
	remote queryStats // downstream responses
	out    []kdtree.Neighbor
	err    error
}

// Err is the kernel's periodic poll (kdtree.Outside): cancellation, or
// the failure of an overlapped remote hop.
func (c *rangeCollector) Err() error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Follow queries a remote subtree (kdtree.Outside) — on its own
// goroutine when the kernel reports the sibling is searched too.
func (c *rangeCollector) Follow(ref kdtree.Ref, _ float64, parallel bool) error {
	call := func() error {
		resp, err := c.p.t.callCtx(c.ctx, c.p.id, host(ref), rangeReq{Node: ref.Node, Query: c.s.Query, D: c.s.Radius})
		c.mu.Lock()
		defer c.mu.Unlock()
		if err != nil {
			if c.err == nil {
				c.err = err
			}
			return err
		}
		rr := resp.(rangeResp)
		c.out = append(c.out, rr.Neighbors...)
		c.remote.fold(rr.Stats)
		return nil
	}
	if !parallel {
		return call()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = call() // recorded in c.err
	}()
	return nil
}
