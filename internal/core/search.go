package core

import (
	"context"
	"math"
	"sync"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// queryCtx is the per-query execution context of the k-nearest engine:
// the kernel traversal state (kdtree.Search: query, visit stack, local
// work counters) over the scratch result set, the remote subtrees the
// local traversal ran into, the stats folded from downstream responses,
// and the collector state for parallel fan-outs. It is also the
// traversal's kdtree.Outside: the kernel hands it every reference that
// leaves the partition's arena, which is where the cross-partition
// protocol lives. Contexts are pooled — a query borrows one, traverses,
// copies its result onto the wire and releases it — so steady-state
// searches allocate only the response slice and the fan-out messages.
type queryCtx struct {
	s       kdtree.Search
	rs      resultSet
	pending []pendingHop      // remote subtrees deferred until the local bound is final
	fp      []kdtree.Neighbor // scratch Rs snapshot for probe-miss detection

	// The query this context is bound to while borrowed: the handler's
	// ctx, partition and request, read by the Outside methods.
	ctx context.Context
	p   *partition
	r   knnReq

	// stats accumulates the folded stats of every downstream response
	// (plus, once the traversal is over, this partition's own counters
	// from s.Stats). Plain increments are only performed by the
	// traversal goroutine strictly before the fan-out goroutines
	// launch; the goroutines fold under mu.
	stats queryStats

	mu       sync.Mutex
	wg       sync.WaitGroup
	partials [][]kdtree.Neighbor
	err      error
}

// pendingHop is one remote subtree the fan-out protocol deferred, with
// the guard it already passed (kdtree's visit guard: the exact squared
// min distance from the query to the subtree's region, the squared
// splitting-plane distance when the region is unknown, < 0 when
// unconditional) so the final local bound can still rule it out.
type pendingHop struct {
	ref     kdtree.Ref
	guardSq float64
	// home marks a subtree the traversal reached unconditionally — the
	// query's own descent path lies in it. Deferred home subtrees are
	// re-guarded by their region like any sibling (a provably-worse one
	// is pruned outright), but while one survives it keeps the paper's
	// probe priority: the partition holding the query's own region is
	// probed first, which tightens the ball best.
	home bool
}

var queryCtxPool = sync.Pool{New: func() any {
	c := new(queryCtx)
	c.s.RS = &c.rs.ResultSet
	return c
}}

func getQueryCtx(ctx context.Context, p *partition, r knnReq) *queryCtx {
	c := queryCtxPool.Get().(*queryCtx)
	c.ctx, c.p, c.r = ctx, p, r
	c.rs.reset(r.K, r.Rs)
	c.s.Reset(r.Query)
	c.pending = c.pending[:0]
	c.stats = queryStats{}
	c.err = nil
	return c
}

func putQueryCtx(c *queryCtx) {
	for i := range c.partials {
		c.partials[i] = nil // drop wire slices; only the scratch is pooled
	}
	c.partials = c.partials[:0]
	for i := range c.fp {
		c.fp[i] = kdtree.Neighbor{} // likewise: snapshots alias result points
	}
	c.fp = c.fp[:0]
	c.ctx, c.p, c.r = nil, nil, knnReq{}
	c.s.Query = nil
	queryCtxPool.Put(c)
}

// snapshotRs copies the current result set into the scratch
// fingerprint buffer, for comparing against the post-merge set.
func (c *queryCtx) snapshotRs() {
	c.fp = append(c.fp[:0], c.rs.Items...)
}

// noteMiss counts a probe miss when the downstream reply left the
// result set exactly as the snapshot it was seeded with: the remote
// region was probed and contributed nothing — the work a tighter
// guard would have skipped outright. Each call is judged against its
// own seed, never against what other partials found, so the count is
// deterministic regardless of fan-out completion order.
func (c *queryCtx) noteMiss() {
	if neighborsEqual(c.fp, c.rs.Items) {
		c.stats.Misses++
	}
}

// neighborsEqual compares two result slices entry-by-entry on the
// (ID, Dist) identity the equivalence contract is stated in.
func neighborsEqual(a, b []kdtree.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Point.ID != b[i].Point.ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

func (c *queryCtx) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *queryCtx) collect(items []kdtree.Neighbor, st queryStats, miss bool) {
	c.mu.Lock()
	c.partials = append(c.partials, items)
	c.stats.fold(st)
	if miss {
		c.stats.Misses++
	}
	c.mu.Unlock()
}

// Err is the kernel's periodic cancellation poll (kdtree.Outside): a
// non-nil error once the query is cancelled or past its deadline.
func (c *queryCtx) Err() error { return c.ctx.Err() }

// Box serves the kernel's guard the cached region of a cross-partition
// subtree (kdtree.Outside).
func (c *queryCtx) Box(ref kdtree.Ref) (lo, hi []float64, ok bool) { return c.p.remoteBox(ref) }

// handleKNN implements the distributed k-nearest search (§III-B.3).
// The request carries the caller's current result set Rs (squared
// distances, see knnReq); the local traversal is the kernel's
// backtracking loop (kdtree.Arena.KNearest) over the partition's arena.
// Remote subtrees — the references the kernel hands to Follow — are
// handled two ways:
//
//   - Seq mode: the paper's sequential protocol — a synchronous fabric
//     call forwards Rs and adopts the merged set before continuing, so
//     later pruning uses the tightest possible bound.
//   - Default (parallel): remote subtrees whose guard still crosses the
//     search ball are deferred until the local traversal finishes, then
//     re-checked against the now-final local bound, grouped by hosting
//     partition, and dispatched as one goroutine-backed fabric call per
//     partition (at most M−1 per wave), mirroring the range search's
//     border-node navigation (§III-B.4). The returned partial sets are
//     merged under the (Dist, ID) tie-break ordering.
//
// Both modes return identical result sets: the snapshot seed and the
// deferred guard re-check only change how much work pruning saves (a
// remote may examine more candidates, never fewer), and every
// candidate either beats the final k-th best or is discarded on merge.
//
// Cancellation is checked between traversal strides (every 64 node
// pops), before each remote hop, and between fan-out waves; the fabric
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
func (p *partition) handleKNN(ctx context.Context, r knnReq) (any, error) {
	if r.K <= 0 {
		return knnResp{}, nil
	}
	c := getQueryCtx(ctx, p, r)
	defer putQueryCtx(c)
	if len(r.Entries) > 0 {
		// Fan-out continuation: seed the stack with every guarded
		// entry, reversed so the first entry pops first.
		for i := len(r.Entries) - 1; i >= 0; i-- {
			c.s.Push(p.Ref(r.Entries[i].Node), r.Entries[i].GuardSq)
		}
	} else {
		c.s.Push(p.Ref(r.Node), -1)
	}
	p.mu.RLock()
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
		p.dispatchPending(ctx, r, c)
	}
	c.wg.Wait()
	if err == nil {
		err = c.err
	}
	if err != nil {
		return nil, err
	}
	for _, partial := range c.partials {
		c.rs.merge(partial)
	}
	st := c.stats
	st.Parts++ // this partition's own handler execution
	return knnResp{Rs: c.rs.export(), Stats: st}, nil
}

// Follow hands a remote subtree off (kdtree.Outside). In Seq mode the
// call is synchronous and Rs travels with the request; the merged set
// replaces ours and tightens all later pruning, the paper's protocol.
// Otherwise the subtree joins the pending list — with the guard it
// already passed, so the final local bound can still rule it out — for
// the per-partition fan-out after the local traversal.
func (c *queryCtx) Follow(ref kdtree.Ref, guardSq float64, _ bool) error {
	p, r := c.p, &c.r
	// A near-side subtree reaches here unconditional (guardSq < 0) —
	// the traversal had to descend toward it — but crossing the
	// partition boundary is a message either way, and the remote
	// region's exact min-distance can rule the hop out like any guarded
	// sibling. Re-guard it with its cached box; it stays unconditional
	// when the region is unknown.
	home := guardSq < 0
	if home {
		if lo, hi, ok := p.remoteBox(ref); ok {
			guardSq = kdtree.BoxMinSq(r.Query, lo, hi)
		}
	}
	if guardSq >= 0 && c.rs.Full() && c.rs.Worst() < guardSq {
		return nil // provably beyond the k-th best: no message spent
	}
	if r.Seq {
		c.snapshotRs()
		resp, err := p.t.callCtx(c.ctx, p.id, host(ref),
			knnReq{Node: ref.Node, Query: r.Query, K: r.K, Rs: c.rs.Items, Seq: true})
		if err != nil {
			return err
		}
		kr := resp.(knnResp)
		c.rs.replace(kr.Rs)
		c.stats.fold(kr.Stats)
		c.noteMiss()
		return nil
	}
	c.pending = append(c.pending, pendingHop{ref: ref, guardSq: guardSq, home: home})
	return nil
}

// dispatchPending resolves the remote subtrees the local traversal ran
// into, in three steps:
//
//  1. Re-check every deferred subtree against the now-final local bound
//     and group the survivors by hosting partition (one message per
//     partition — each wave stays within the paper's M−1 parallel
//     operations, and the remote side prunes across its entries with
//     its own evolving bound).
//  2. Probe the most promising partition — the one holding the subtree
//     whose region has the smallest exact min-distance to the query
//     (true min-distance ranking; the splitting-plane distance is only
//     the fallback for an unknown region) — *synchronously*, exactly
//     like the sequential protocol's first hop. Its merged set tightens
//     the search ball, which usually rules most other partitions out;
//     when only one partition qualifies this degrades to the sequential
//     protocol and costs nothing extra.
//  3. Fan the remaining partitions out on goroutines against a snapshot
//     of the tightened Rs, and let handleKNN merge the partials.
//
// The context is re-checked before each wave; once it is done no
// further messages are dispatched and the error surfaces via c.err.
// Returning a dispatch error is handled by the caller via c.err.
func (p *partition) dispatchPending(ctx context.Context, r knnReq, c *queryCtx) {
	if len(c.pending) == 0 {
		return
	}
	groups := make(map[cluster.NodeID][]knnEntry)
	minGuard := make(map[cluster.NodeID]float64)
	for _, f := range c.pending {
		if f.guardSq >= 0 && c.rs.Full() && c.rs.Worst() < f.guardSq {
			continue
		}
		guard := f.guardSq
		if f.home || guard < 0 {
			// The query's own region lives there: a surviving home
			// subtree keeps first probe priority regardless of its
			// re-guard — it tightens the ball best.
			guard = math.Inf(-1)
		}
		part := host(f.ref)
		if cur, ok := minGuard[part]; !ok || guard < cur {
			minGuard[part] = guard
		}
		groups[part] = append(groups[part], knnEntry{Node: f.ref.Node, GuardSq: f.guardSq})
	}
	if len(groups) == 0 {
		return
	}
	if err := ctx.Err(); err != nil {
		c.fail(err)
		return
	}
	probe := cluster.NodeID(-1)
	for part, guard := range minGuard {
		if probe < 0 || guard < minGuard[probe] ||
			(guard == minGuard[probe] && part < probe) {
			probe = part
		}
	}
	c.snapshotRs()
	resp, err := p.t.callCtx(ctx, p.id, probe,
		knnReq{Query: r.Query, K: r.K, Rs: c.rs.Items, Entries: groups[probe]})
	if err != nil {
		c.fail(err)
		return
	}
	kr := resp.(knnResp)
	c.rs.replace(kr.Rs)
	c.stats.fold(kr.Stats)
	c.noteMiss()
	delete(groups, probe)

	if err := ctx.Err(); err != nil {
		if len(groups) > 0 {
			c.fail(err)
		}
		return
	}
	var seed []kdtree.Neighbor
	for part, entries := range groups {
		kept := entries[:0]
		for _, e := range entries {
			if e.GuardSq >= 0 && c.rs.Full() && c.rs.Worst() < e.GuardSq {
				continue // the probe's tightened ball rules it out
			}
			kept = append(kept, e)
		}
		if len(kept) == 0 {
			continue
		}
		if seed == nil {
			seed = c.rs.export()
		}
		c.wg.Add(1)
		go func(part cluster.NodeID, entries []knnEntry) {
			defer c.wg.Done()
			resp, err := p.t.callCtx(ctx, p.id, part,
				knnReq{Query: r.Query, K: r.K, Rs: seed, Entries: entries})
			if err != nil {
				c.fail(err)
				return
			}
			kr := resp.(knnResp)
			// A wave reply is judged a miss against the shared seed it
			// was sent — not against the evolving merged set — so the
			// count does not depend on completion order.
			c.collect(kr.Rs, kr.Stats, neighborsEqual(seed, kr.Rs))
		}(part, kept)
	}
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
	err := p.Range(&col.s, r.Node, col)
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

// Box serves the kernel's guard the cached region of a cross-partition
// subtree (kdtree.Outside).
func (c *rangeCollector) Box(ref kdtree.Ref) (lo, hi []float64, ok bool) {
	return c.p.remoteBox(ref)
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
