package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// Config configures a distributed SemTree.
type Config struct {
	// Dim is the dimensionality of indexed points (the FastMap k).
	Dim int
	// BucketSize is the leaf capacity Bs. Default 16.
	BucketSize int
	// PartitionCapacity is the number of points a partition may host
	// before the build-partition algorithm fires. 0 disables spilling
	// (a single partition holds everything).
	PartitionCapacity int
	// MaxPartitions is the paper's M: the number of compute nodes
	// available, including the root partition. Default 1.
	MaxPartitions int
	// Fabric carries inter-partition messages. Nil selects a private
	// in-process fabric with zero latency.
	Fabric cluster.Fabric
	// Unbalanced selects the degenerate chain split policy, reproducing
	// the paper's "totally unbalanced" configuration.
	Unbalanced bool
	// RetryAttempts bounds per-message retries on transient fabric
	// failures. Default 3. Delivery is at-least-once: cluster.TCP
	// reports any failed exchange as transient — a reply lost on a
	// pooled connection after the handler ran included — and the retry
	// then applies the request a second time. Queries and restoreReq
	// are idempotent; the two write kinds, bulkAddReq (every insert) and
	// installReq, are not (a duplicated point or fragment).
	RetryAttempts int
}

func (c Config) withDefaults() (Config, error) {
	if c.Dim <= 0 {
		return c, fmt.Errorf("core: dimension %d must be positive", c.Dim)
	}
	if c.BucketSize <= 0 {
		c.BucketSize = kdtree.DefaultBucketSize
	}
	if c.MaxPartitions <= 0 {
		c.MaxPartitions = 1
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 3
	}
	if c.PartitionCapacity < 0 {
		return c, fmt.Errorf("core: negative partition capacity %d", c.PartitionCapacity)
	}
	return c, nil
}

// Tree is the distributed SemTree index. The structure is reachable
// only through fabric messages addressed to the root partition, exactly
// as a client of the paper's system would use it. All methods are safe
// for concurrent use.
type Tree struct {
	cfg       Config
	fabric    cluster.Fabric // observation-wrapped; all tree traffic goes through it
	inner     cluster.Fabric // the fabric as configured (closed on Close when owned)
	ownFabric bool

	// place assigns spilled and rebalanced subtrees to empty target
	// partitions: placeSubtrees, which tests swap for a reference.
	place func(subs []placeBox, targets int) []int

	// model is the scheduler's online cost model; it is always on (the
	// observations are a few arithmetic ops per query) and shared by
	// every Scheduler created over this tree.
	model *costModel

	mu    sync.RWMutex
	parts []*partition

	// bulkMu serializes BulkLoad passes: two concurrent bulk builds
	// would race for the root graft and orphan each other's installs.
	// Single inserts and queries never take it.
	bulkMu sync.Mutex

	size atomic.Int64
}

// TreeStats aggregates the state of every partition plus fabric
// accounting.
type TreeStats struct {
	Points          int
	Partitions      int
	PartitionPoints []int // per-partition hosted points
	Nodes           int
	Leaves          int
	NavSteps        int64 // total nodes traversed by insert descents
	Inserts         int64
	// BoxWork counts the boxes inserts grew: node boxes on their descent
	// paths and remote-edge cache entries that did not yet cover the
	// point (a box that already does is not written) — per insert, the
	// region-metadata overhead of a growing tree.
	BoxWork int64
	Fabric  cluster.Stats
}

// New creates a distributed SemTree with its root partition.
func New(cfg Config) (*Tree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, inner: cfg.Fabric, place: placeSubtrees, model: newCostModel()}
	if t.inner == nil {
		t.inner = cluster.NewInProc(cluster.InProcOptions{})
		t.ownFabric = true
	}
	// The cost model subscribes to the fabric's latency observation
	// point: every Call the tree issues is timed at the transport
	// boundary and fed to the hop estimator.
	t.fabric = cluster.Observe(t.inner, t.model.observeSample)
	if _, err := t.addPartition(); err != nil {
		return nil, err
	}
	return t, nil
}

// addPartition registers a new partition on the fabric. The first one
// becomes the root partition.
func (t *Tree) addPartition() (*partition, error) {
	p := &partition{t: t}
	id, err := t.fabric.AddNode(p.handle)
	if err != nil {
		return nil, err
	}
	p.id = id
	p.Arena = kdtree.Arena{Self: int32(id), Dim: t.cfg.Dim, BucketSize: t.cfg.BucketSize, Chain: t.cfg.Unbalanced}
	t.mu.Lock()
	if len(t.parts) == 0 {
		// The root partition starts with the tree root: one empty
		// leaf at node index 0, where Insert and the searches enter.
		p.AddLeaf()
	}
	t.parts = append(t.parts, p)
	t.mu.Unlock()
	return p, nil
}

// rootPartition returns the partition holding the tree root.
func (t *Tree) rootPartition() *partition {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.parts[0]
}

// hasPartitionBudget reports whether more partitions may be created.
func (t *Tree) hasPartitionBudget() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.parts) < t.cfg.MaxPartitions
}

// allocPartitions creates up to want new partitions, bounded by the
// remaining MaxPartitions budget, and returns their fabric IDs.
func (t *Tree) allocPartitions(want int) []cluster.NodeID {
	t.mu.RLock()
	budget := t.cfg.MaxPartitions - len(t.parts)
	t.mu.RUnlock()
	if want > budget {
		want = budget
	}
	var ids []cluster.NodeID
	for i := 0; i < want; i++ {
		p, err := t.addPartition()
		if err != nil {
			break
		}
		ids = append(ids, p.id)
	}
	return ids
}

// detached is the context of everything that runs outside any query
// context: inserts, maintenance, stats.
//
//semtree:allow ctxfirst: inserts and maintenance run to completion once started, by documented contract
var detached = context.Background()

// call sends one fabric message with transient-failure retries, outside
// any query context.
func (t *Tree) call(from, to cluster.NodeID, req any) (any, error) {
	return t.callCtx(detached, from, to, req)
}

// callCtx sends one fabric message under the query's context: the
// transports abandon in-flight replies when ctx expires, and retries
// stop as soon as it is done.
func (t *Tree) callCtx(ctx context.Context, from, to cluster.NodeID, req any) (any, error) {
	return cluster.CallRetry(ctx, t.fabric, from, to, req, t.cfg.RetryAttempts)
}

// Insert adds a point, entering at the root node of the root partition
// (§III-B.1): a one-entry batch under the Append landing policy, so the
// point lands, splits and forwards exactly as the paper's single-point
// insertion does — one message per partition it crosses.
func (t *Tree) Insert(p kdtree.Point) error {
	if len(p.Coords) != t.cfg.Dim {
		return fmt.Errorf("core: point has %d coords, tree dimension is %d", len(p.Coords), t.cfg.Dim)
	}
	root := t.rootPartition()
	if _, err := t.call(cluster.ClientID, root.id, bulkAddReq{Entries: []batchEntry{{Node: 0, Point: p}}, Policy: landAppend}); err != nil {
		return err
	}
	t.size.Add(1)
	return nil
}

// InsertAll inserts points concurrently with the given number of
// workers ("using M−1 data partitions, we can perform in the best case
// M−1 parallel operations maximizing our throughput" — §III-C). It
// returns the first error; remaining points are still attempted.
func (t *Tree) InsertAll(pts []kdtree.Point, workers int) error {
	if workers < 1 {
		workers = 1 // RunBatch reads 0 as GOMAXPROCS
	}
	return RunBatch(detached, len(pts), workers, func(i int) error { return t.Insert(pts[i]) })
}

// Protocol names reported in ExecStats.Protocol.
const (
	// ProtocolNameParallel is the probe-then-fan-out cross-partition
	// k-NN protocol (hop-overlapping latency path).
	ProtocolNameParallel = "parallel"
	// ProtocolNameSequential is the paper's sequential Rs-forwarding
	// k-NN protocol (§III-B.3; minimal total work).
	ProtocolNameSequential = "sequential"
	// ProtocolNameRange is the border-node fan-out range protocol
	// (§III-B.4).
	ProtocolNameRange = "range"
)

// ExecStats is the per-query execution accounting of the distributed
// engine — the paper's cost model (§V states query cost in messages and
// nodes visited) surfaced per request, so callers can observe what a
// query actually cost and drive admission control or adaptive protocol
// choice from it. Counters are exact sums over every partition the
// query executed on.
type ExecStats struct {
	// NodesVisited counts tree nodes popped and examined (pruned
	// subtrees cost nothing).
	NodesVisited int64
	// BucketsScanned counts leaf buckets whose points were examined.
	BucketsScanned int64
	// DistanceEvals counts point-to-query distance evaluations.
	DistanceEvals int64
	// Partitions counts partition handler executions on behalf of the
	// query (a partition reached through two different paths counts
	// twice — it did the work twice).
	Partitions int
	// FabricMessages counts fabric calls issued for the query,
	// including the client's own call to the root partition.
	FabricMessages int64
	// ProbeMisses counts downstream k-NN calls whose reply did not
	// improve the result-set snapshot they were sent: partitions probed
	// for nothing. A guarded probe that misses is exactly the work a
	// tight enough bound would have skipped, so the count is the direct
	// measure of pruning quality (TestRegionPruneReducesWork holds it
	// strictly below the plane-guard baseline at dimensionality 8) — with
	// an irreducible floor: mandatory routing hops (the partition
	// hosting the query's own region, whose min-distance guard is 0)
	// count as misses when the caller's seed already held all k best,
	// and no bound can skip those. Each call is judged against its own
	// seed, so the count is deterministic for a fixed tree and query.
	ProbeMisses int64
	// Wall is the client-observed execution time of the query,
	// including all fabric transit.
	Wall time.Duration
	// Protocol names the cross-partition protocol used (Protocol*
	// constants).
	Protocol string
}

// fromWire converts aggregated wire stats into the client-facing form,
// charging the client's own root call.
func (s *ExecStats) fromWire(w queryStats) {
	s.NodesVisited = w.Nodes
	s.BucketsScanned = w.Buckets
	s.DistanceEvals = w.Dists
	s.Partitions = int(w.Parts)
	s.FabricMessages = w.Msgs + 1
	s.ProbeMisses = w.Misses
}

// KNearest returns the k points closest to q, ascending by distance
// (ties broken by point ID). The cross-partition protocol is chosen
// per query by the scheduler's cost model (ProtocolAuto): the paper's
// sequential Rs-forwarding when the workload is CPU-bound, the
// probe-then-fan-out when per-hop fabric latency dominates. Both
// protocols return identical results; ExecStats.Protocol names the one
// that ran. The context bounds the query: cancellation or an expired
// deadline aborts the traversal and abandons outstanding partition
// replies.
func (t *Tree) KNearest(ctx context.Context, q []float64, k int) ([]kdtree.Neighbor, error) {
	ns, _, err := t.KNearestStats(ctx, q, k)
	return ns, err
}

// KNearestStats is KNearest returning the query's execution stats.
func (t *Tree) KNearestStats(ctx context.Context, q []float64, k int) ([]kdtree.Neighbor, ExecStats, error) {
	return t.knnResolved(ctx, q, k, t.model.choose(t.PartitionCount()), true)
}

// knnResolved runs one k-nearest query under the fixed protocol p
// (never ProtocolAuto); auto records whether the cost model chose it,
// for histogram attribution. The Scheduler calls this directly with the
// protocol it priced at admission, so the budget-checked strategy and
// the executed one cannot diverge. Both protocols return identical
// results, which the equivalence tests assert. The wire protocol carries
// squared distances (see knnReq); the single deferred sqrt happens here,
// at the client boundary. An already-done context returns its error
// without touching the tree. Completed queries feed their ExecStats back
// into the cost model — the observation loop that makes the choice
// adaptive.
func (t *Tree) knnResolved(ctx context.Context, q []float64, k int, p Protocol, auto bool) ([]kdtree.Neighbor, ExecStats, error) {
	seq := p != ProtocolFanOut
	st := ExecStats{Protocol: ProtocolNameSequential}
	idx := idxSeq
	if !seq {
		st.Protocol = ProtocolNameParallel
		idx = idxFan
	}
	// The ctx check comes first: a cancelled query reports the
	// cancellation, not a validation error about coords it may never
	// have embedded.
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	if len(q) != t.cfg.Dim {
		return nil, st, fmt.Errorf("core: query has %d coords, tree dimension is %d", len(q), t.cfg.Dim)
	}
	if k <= 0 || t.size.Load() == 0 {
		return nil, st, nil
	}
	t.model.countChoice(st.Protocol, auto)
	root := t.rootPartition()
	start := time.Now()
	resp, err := t.callCtx(ctx, cluster.ClientID, root.id, knnReq{Node: 0, Query: q, K: k, Seq: seq})
	st.Wall = time.Since(start)
	if err != nil {
		return nil, st, err
	}
	kr := resp.(knnResp)
	st.fromWire(kr.Stats)
	t.model.observeQuery(idx, st)
	out := kr.Rs
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	return out, st, nil
}

// RangeSearch returns every point within distance d of q, ascending by
// distance (ties broken by point ID). Partitions return unsorted
// squared-distance partial sets (the rangeResp ordering contract); the
// merged result is sorted and square-rooted exactly once, here. The
// context bounds the query like KNearest's.
func (t *Tree) RangeSearch(ctx context.Context, q []float64, d float64) ([]kdtree.Neighbor, error) {
	ns, _, err := t.RangeSearchStats(ctx, q, d)
	return ns, err
}

// RangeSearchStats is RangeSearch returning the query's execution
// stats.
func (t *Tree) RangeSearchStats(ctx context.Context, q []float64, d float64) ([]kdtree.Neighbor, ExecStats, error) {
	st := ExecStats{Protocol: ProtocolNameRange}
	if err := ctx.Err(); err != nil {
		return nil, st, err // before validation, as in knnResolved
	}
	if len(q) != t.cfg.Dim {
		return nil, st, fmt.Errorf("core: query has %d coords, tree dimension is %d", len(q), t.cfg.Dim)
	}
	if d < 0 || t.size.Load() == 0 {
		return nil, st, nil
	}
	root := t.rootPartition()
	start := time.Now()
	resp, err := t.callCtx(ctx, cluster.ClientID, root.id, rangeReq{Node: 0, Query: q, D: d})
	st.Wall = time.Since(start)
	if err != nil {
		return nil, st, err
	}
	rr := resp.(rangeResp)
	st.fromWire(rr.Stats)
	t.model.observeQuery(idxRange, st)
	out := rr.Neighbors
	slices.SortFunc(out, func(a, b kdtree.Neighbor) int {
		switch {
		case neighborLess(a, b):
			return -1
		case neighborLess(b, a):
			return 1
		}
		return 0
	})
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	return out, st, nil
}

// RunBatch runs fn(0..n-1) on a bounded worker pool, returning the
// first error after every dispatched call has finished. Workers pull
// indices from a shared counter, so skewed per-item costs balance out;
// once ctx is done, workers stop pulling — already-running calls finish
// (or abort on their own ctx checks) but nothing new is dispatched, and
// the context's error is returned if no earlier error was recorded.
// workers <= 0 selects GOMAXPROCS. It is the one worker pool in the
// tree: Searcher.SearchBatch and Index.BulkAdd both batch by running
// their single-item function through it.
func RunBatch(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Inline: one-element batches and 1-worker pools should not pay
		// goroutine spawn + WaitGroup sync.
		var first error
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				if first == nil {
					first = err
				}
				break
			}
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		errMu sync.Mutex
		first error
	)
	record := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					record(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					record(err)
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return int(t.size.Load()) }

// PartitionCount returns the number of partitions in use.
func (t *Tree) PartitionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.parts)
}

// Stats gathers per-partition statistics through the fabric. The
// partition list is snapshotted first; no tree lock is held while
// messaging (partitions may be spilling concurrently).
func (t *Tree) Stats() (TreeStats, error) {
	t.mu.RLock()
	parts := append([]*partition(nil), t.parts...)
	t.mu.RUnlock()
	st := TreeStats{Partitions: len(parts)}
	for _, p := range parts {
		resp, err := t.call(cluster.ClientID, p.id, statsReq{})
		if err != nil {
			return st, err
		}
		pr := resp.(statsResp)
		st.Points += pr.Points
		st.PartitionPoints = append(st.PartitionPoints, pr.Points)
		st.Nodes += pr.Nodes
		st.Leaves += pr.Leaves
		st.NavSteps += pr.NavSteps
		st.BoxWork += pr.BoxWork
		st.Inserts += pr.Inserts
	}
	st.Fabric = t.fabric.Stats()
	return st, nil
}

// Close releases the private fabric when the tree owns one.
func (t *Tree) Close() error {
	if t.ownFabric {
		return t.inner.Close()
	}
	return nil
}
