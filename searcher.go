package semtree

import (
	"context"
	"math"

	"semtree/internal/core"
	"semtree/internal/kdtree"
	"semtree/internal/triple"
)

// SearchMode selects how a Searcher interprets its options.
type SearchMode int

const (
	// ModeAuto infers the mode: range retrieval when Radius > 0,
	// k-nearest otherwise.
	ModeAuto SearchMode = iota
	// ModeKNN forces k-nearest retrieval.
	ModeKNN
	// ModeRange forces range retrieval — including Radius == 0, which
	// returns only exact embedded matches.
	ModeRange
)

// SearchOptions is the resolved configuration of a Searcher, the
// facade of the concurrent query engine. The zero value of each field
// selects a default; set K for k-nearest retrieval and Radius (or
// ModeRange) for range retrieval. In range mode K > 0 truncates the
// ranked result. Index.Searcher takes functional options (WithK,
// WithRadius, ...) that build one of these.
type SearchOptions struct {
	// Mode selects k-nearest vs range retrieval; ModeAuto (the zero
	// value) infers it from Radius.
	Mode SearchMode
	// K is the number of neighbors returned per query. K <= 0 in
	// k-nearest mode returns nil (nothing was asked for); in range
	// mode it leaves the result untruncated.
	K int
	// Radius is the range-retrieval distance: every triple within
	// embedded distance Radius of the query, ascending. Since the
	// embedding approximates the semantic distance, Radius is on the
	// Eq. 1 scale.
	Radius float64
	// ExactFactor > 0 re-ranks k-nearest results under the *exact*
	// Eq. 1 distance: ExactFactor·K candidates are fetched from the
	// embedded index and re-ordered with the true metric. Values below
	// 2 are raised to 2, and the candidate count is clamped to the
	// index size, so degenerate factors can neither overflow nor
	// over-allocate. Ignored in range mode.
	ExactFactor int
	// Parallelism bounds the workers that embed and execute a batch
	// (default GOMAXPROCS). Single-query Search calls are unaffected.
	Parallelism int
	// Protocol selects the cross-partition k-NN strategy. The zero
	// value is ProtocolAuto: the scheduler's cost model picks
	// sequential vs fan-out per query from its online latency and
	// compute estimates. See WithProtocol.
	Protocol Protocol
	// MaxInFlight bounds the queries this searcher executes
	// concurrently, across all batches and goroutines using it; the
	// excess waits in a bounded admission queue (QueueDepth) and is
	// rejected with ErrAdmissionRejected beyond that. 0 means
	// unlimited. See WithMaxInFlight.
	MaxInFlight int
	// QueueDepth bounds the admission queue behind MaxInFlight:
	// 0 defaults to MaxInFlight, negative disables queueing (reject as
	// soon as the in-flight limit is saturated).
	QueueDepth int
	// AdmissionControl enables the deadline-budget check: a query
	// whose context deadline leaves less time than the cost model's
	// estimate of the query — plus the expected wait behind the
	// searcher's admission queue — is rejected with ErrDeadlineBudget
	// instead of executed. See WithAdmissionControl.
	AdmissionControl bool
	// Quota, when non-nil, enforces a per-searcher (i.e. per-tenant)
	// token-bucket cost quota in cost units (see CostOf): admissions
	// are charged with the cost model's estimate of the query, the
	// observed ExecStats settle the difference on completion, and an
	// exhausted bucket rejects with ErrQuotaExhausted before any
	// fabric message is spent. See WithQuota.
	Quota *QuotaConfig
}

// SearchOption configures a Searcher. Options are applied in order to
// a zero SearchOptions value, so later options override earlier ones;
// Index.Searcher takes only options — the variadic form is the one
// canonical configuration surface, and it is the single source of
// truth for wire-request decoding in the serving tier (internal/serve
// maps every request field onto exactly these options).
type SearchOption func(*SearchOptions)

// WithMode pins the retrieval mode (k-nearest vs range); the default
// ModeAuto infers it from the radius.
func WithMode(m SearchMode) SearchOption {
	return func(o *SearchOptions) { o.Mode = m }
}

// WithK sets the number of neighbors returned per query. k <= 0 in
// k-nearest mode returns nil; in range mode it leaves the ranked
// result untruncated.
func WithK(k int) SearchOption {
	return func(o *SearchOptions) { o.K = k }
}

// WithRadius sets the range-retrieval distance on the Eq. 1 scale and
// (under ModeAuto, for a positive radius) selects range mode.
func WithRadius(d float64) SearchOption {
	return func(o *SearchOptions) { o.Radius = d }
}

// WithExactFactor enables exact Eq. 1 re-ranking: factor·K candidates
// are fetched from the embedded index and re-ordered under the true
// metric. See SearchOptions.ExactFactor for the clamping rules.
func WithExactFactor(factor int) SearchOption {
	return func(o *SearchOptions) { o.ExactFactor = factor }
}

// WithParallelism bounds the workers that embed and execute a batch
// (default GOMAXPROCS). Single-query Search calls are unaffected.
func WithParallelism(n int) SearchOption {
	return func(o *SearchOptions) { o.Parallelism = n }
}

// WithQueueDepth bounds the admission queue behind MaxInFlight:
// 0 defaults to MaxInFlight, negative disables queueing (reject as
// soon as the in-flight limit is saturated).
func WithQueueDepth(n int) SearchOption {
	return func(o *SearchOptions) { o.QueueDepth = n }
}

// Protocol is the cross-partition k-NN execution strategy
// (core.Protocol): ProtocolAuto, ProtocolSequential or ProtocolFanOut.
type Protocol = core.Protocol

// Re-exported protocol values for WithProtocol.
const (
	// ProtocolAuto lets the self-tuning scheduler pick sequential vs
	// fan-out per query (the default).
	ProtocolAuto = core.ProtocolAuto
	// ProtocolSequential forces the paper's sequential Rs-forwarding
	// protocol (minimal total work).
	ProtocolSequential = core.ProtocolSequential
	// ProtocolFanOut forces the probe-then-fan-out protocol
	// (overlapped cross-partition hops).
	ProtocolFanOut = core.ProtocolFanOut
)

// Typed admission errors, re-exported from the core engine. Check with
// errors.Is on Result.Err.
var (
	// ErrAdmissionRejected marks a query shed because the searcher's
	// MaxInFlight limit and admission queue were both full.
	ErrAdmissionRejected = core.ErrAdmissionRejected
	// ErrDeadlineBudget marks a query rejected because its deadline
	// budget was provably below the estimated execution cost.
	ErrDeadlineBudget = core.ErrDeadlineBudget
	// ErrQuotaExhausted marks a query rejected because the searcher's
	// token-bucket quota held fewer cost units than the query's
	// estimated cost. The bucket refills at the configured rate; back
	// off and retry.
	ErrQuotaExhausted = core.ErrQuotaExhausted
)

// QuotaConfig configures a Searcher's token-bucket cost quota
// (core.QuotaConfig): Capacity is the burst budget and RefillPerSec the
// sustained spend rate, both in cost units. See CostOf for the scale.
type QuotaConfig = core.QuotaConfig

// CostOf prices one query's observed execution on the quota cost-unit
// scale (core.CostOf): distance evaluations, fabric messages and wall
// time at fixed relative prices. Use it to size QuotaConfig from
// measured traffic — e.g. Capacity = 4×CostOf(typical query) and
// RefillPerSec = CostOf(typical query) × target QPS.
func CostOf(st ExecStats) float64 { return core.CostOf(st) }

// WithProtocol pins the cross-partition k-NN protocol (or restores
// ProtocolAuto, the default).
func WithProtocol(p Protocol) SearchOption {
	return func(o *SearchOptions) { o.Protocol = p }
}

// WithMaxInFlight bounds the searcher's concurrently executing queries;
// n <= 0 means unlimited.
func WithMaxInFlight(n int) SearchOption {
	return func(o *SearchOptions) {
		if n < 0 {
			n = 0
		}
		o.MaxInFlight = n
	}
}

// WithAdmissionControl toggles the deadline-budget admission check.
func WithAdmissionControl(on bool) SearchOption {
	return func(o *SearchOptions) { o.AdmissionControl = on }
}

// WithQuota enforces a per-searcher token-bucket cost quota: capacity
// is the burst budget and refillPerSec the sustained spend rate, both
// in cost units (see CostOf). The bucket starts full and refills
// lazily at admission time; an exhausted bucket rejects queries with
// ErrQuotaExhausted before any fabric message is spent. A zero
// capacity admits nothing (drains the tenant); to disable quotas,
// leave SearchOptions.Quota nil instead.
func WithQuota(capacity, refillPerSec float64) SearchOption {
	return func(o *SearchOptions) {
		o.Quota = &QuotaConfig{Capacity: capacity, RefillPerSec: refillPerSec}
	}
}

// SchedulerStats is a snapshot of the searcher's query scheduler:
// admission counters, the cost model's current hop-latency and compute
// estimates, and the protocol-choice histogram (core.SchedulerStats).
type SchedulerStats = core.SchedulerStats

// ExecStats is the per-query execution accounting reported with every
// Result — the paper's cost model (messages and nodes visited per
// query, §V) surfaced per request. It is the distributed engine's
// core.ExecStats: NodesVisited, BucketsScanned, DistanceEvals,
// Partitions, FabricMessages, ProbeMisses, Wall and Protocol. At this facade,
// DistanceEvals additionally includes the exact Eq. 1 re-rank
// evaluations when ExactFactor is set; Wall covers the index execution
// of the query (the FastMap embedding and triple resolution are
// excluded).
type ExecStats = core.ExecStats

// Result is the outcome of one query in a batch: the ranked matches,
// what computing them cost, and the query's own error. Errors are
// attributed per query — a failed query never poisons the healthy
// queries of its batch (see SearchBatch).
type Result struct {
	// Matches are the ranked retrieval results; nil when Err is set.
	Matches []Match
	// Stats reports what the query cost to execute.
	Stats ExecStats
	// Err is this query's failure, if any: a context error when the
	// batch was cut off before the query ran, an ErrUnindexedID when a
	// tree point has no stored triple, or a fabric/validation error.
	Err error
}

// Searcher executes queries against the index under one fixed set of
// options. It is stateless apart from the options and its scheduler,
// and safe for concurrent use. Every query takes the same path — embed,
// scheduler, resolve — whether it arrives through Search or as one
// element of a SearchBatch, which runs that path on a bounded worker
// pool on top of the per-query parallel k-NN fan-out inside the tree
// itself.
type Searcher struct {
	ix        *Index
	opts      SearchOptions
	rangeMode bool
	sched     *core.Scheduler
}

// Searcher returns a reusable query engine over the index, configured
// by options applied in order to a zero SearchOptions value (WithK,
// WithRadius, WithProtocol, WithQuota, ...). Each Searcher
// owns its own admission scheduler — the in-flight limit, quota bucket
// and counters are per-Searcher — while the cost model driving
// protocol choice is shared index-wide, so estimates learned through
// one searcher benefit all.
func (ix *Index) Searcher(opts ...SearchOption) *Searcher {
	var o SearchOptions
	for _, opt := range opts {
		opt(&o)
	}
	rangeMode := o.Mode == ModeRange || (o.Mode == ModeAuto && o.Radius > 0)
	sched := ix.tree.NewScheduler(core.SchedulerConfig{
		Protocol:    o.Protocol,
		MaxInFlight: o.MaxInFlight,
		QueueDepth:  o.QueueDepth,
		Admission:   o.AdmissionControl,
		Quota:       o.Quota,
	})
	return &Searcher{ix: ix, opts: o, rangeMode: rangeMode, sched: sched}
}

// SchedulerStats snapshots the searcher's scheduler: how many queries
// were admitted, shed (ErrAdmissionRejected), budget-rejected
// (ErrDeadlineBudget) or quota-rejected (ErrQuotaExhausted), how many
// are queued and in flight right now, the cost model's current
// estimates, the protocol-choice histogram, the searcher's cumulative
// metered cost (distance evaluations, fabric messages, wall time and
// their cost-unit total), and — under WithQuota — the token bucket's
// current level and capacity.
func (s *Searcher) SchedulerStats() SchedulerStats { return s.sched.Stats() }

// With derives a searcher that shares this searcher's scheduler — and
// therefore its admission limits, deadline budget and quota bucket —
// while answering under different query-level options (WithMode, WithK,
// WithRadius, WithExactFactor, WithParallelism). This is how one tenant
// asks differently-shaped queries without splitting its quota: the
// serving tier decodes every wire request into options and applies them
// with With over the tenant's searcher. Scheduler-level options
// (WithProtocol, WithMaxInFlight, WithQueueDepth, WithAdmissionControl,
// WithQuota) are ignored here — the scheduler is shared by design; build
// a new Searcher to change them.
func (s *Searcher) With(opts ...SearchOption) *Searcher {
	o := s.opts
	for _, opt := range opts {
		opt(&o)
	}
	// Re-pin the scheduler-level fields: the derived searcher runs on
	// the parent's scheduler, so its options must say so.
	o.Protocol = s.opts.Protocol
	o.MaxInFlight = s.opts.MaxInFlight
	o.QueueDepth = s.opts.QueueDepth
	o.AdmissionControl = s.opts.AdmissionControl
	o.Quota = s.opts.Quota
	rangeMode := o.Mode == ModeRange || (o.Mode == ModeAuto && o.Radius > 0)
	return &Searcher{ix: s.ix, opts: o, rangeMode: rangeMode, sched: s.sched}
}

// SetQuotaRate retargets the searcher's token bucket in place: the new
// capacity and refill rate take effect at the call instant (tokens
// earned so far at the old rate are kept, clamped into the new
// capacity). This is the lease seam the distributed-quota allocator
// uses — a front-end's share of a tenant's fleet-wide refill arrives as
// periodic SetQuotaRate calls. Returns false when the searcher was
// built without WithQuota; a lease cannot conjure a bucket.
func (s *Searcher) SetQuotaRate(capacity, refillPerSec float64) bool {
	return s.sched.SetQuotaRate(capacity, refillPerSec)
}

// Search answers a single query under the searcher's options. The
// context bounds the query end to end: an already-done context returns
// its error without touching the index, and a deadline expiring
// mid-query aborts the cross-partition fan-out. The returned error is
// the query's own (res.Err), surfaced for the single-query case.
func (s *Searcher) Search(ctx context.Context, q triple.Triple) (Result, error) {
	res := s.search(ctx, q)
	return res, res.Err
}

// search runs one query end to end — the facade's whole request path:
// embed the triple with FastMap, execute it through the searcher's
// scheduler (protocol choice, admission, quota — a rejection is this
// query's error like any other failure), resolve the points back to
// stored triples and, in exact mode, re-rank under the true Eq. 1
// distance, then truncate to K. Search is this function; SearchBatch is
// a worker pool over it.
func (s *Searcher) search(ctx context.Context, q triple.Triple) Result {
	if err := ctx.Err(); err != nil {
		return Result{Err: err}
	}
	want := s.candidateK()
	if !s.rangeMode && want <= 0 {
		return Result{} // k-nearest of nothing
	}
	coords := s.ix.embed(q)
	var res Result
	var ns []kdtree.Neighbor
	if s.rangeMode {
		ns, res.Stats, res.Err = s.sched.RangeSearch(ctx, coords, s.opts.Radius)
	} else {
		ns, res.Stats, res.Err = s.sched.KNearest(ctx, coords, want)
	}
	if res.Err != nil {
		return res
	}
	ms, err := s.ix.matches(ns)
	if err != nil {
		res.Err = err
		return res
	}
	if !s.rangeMode && s.opts.ExactFactor > 0 {
		metric := s.ix.metric
		rq := metric.Resolve(q)
		for j := range ms {
			ms[j].Dist = metric.ResolvedDistance(rq, metric.Resolve(ms[j].Triple))
		}
		res.Stats.DistanceEvals += int64(len(ms))
		sortMatches(ms)
	}
	if s.opts.K > 0 && len(ms) > s.opts.K {
		ms = ms[:s.opts.K]
	}
	res.Matches = ms
	return res
}

// SearchBatch answers one query per element of qs on a bounded worker
// pool (WithParallelism); results[i] answers qs[i] exactly as
// Search(ctx, qs[i]) would.
//
// Error contract: the returned error is batch-level only — a context
// that was already done, or expired while the batch ran. Per-query
// failures (validation, admission rejections, fabric errors, unindexed
// IDs) are attached to their own Result.Err, so the healthy queries of
// a batch always return their matches; entries never dispatched because
// the context expired carry the context's error.
func (s *Searcher) SearchBatch(ctx context.Context, qs []triple.Triple) ([]Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	out := make([]Result, len(qs))
	_ = core.RunBatch(ctx, len(qs), s.opts.Parallelism, func(i int) error {
		out[i] = s.search(ctx, qs[i])
		return nil // attributed to out[i]; do not abort the pool
	})
	if err := ctx.Err(); err != nil {
		// Attribute the cutoff to entries the pool never dispatched. A
		// dispatched query always has its protocol stamped (even on
		// failure) or its own error, so a successful zero-match query is
		// never mislabeled as cut off.
		for i := range out {
			if out[i].Stats.Protocol == "" && out[i].Err == nil {
				out[i].Err = err
			}
		}
		return out, err
	}
	return out, nil
}

// candidateK is the per-query candidate count fetched from the embedded
// index: K itself, or factor·K in exact re-rank mode — clamped so a
// degenerate factor can neither overflow the multiplication nor request
// more candidates than the index holds.
func (s *Searcher) candidateK() int {
	k := s.opts.K
	if k <= 0 {
		return 0
	}
	if s.opts.ExactFactor <= 0 {
		return k
	}
	factor := s.opts.ExactFactor
	if factor < 2 {
		factor = 2
	}
	n := s.ix.Len()
	want := n
	if k <= math.MaxInt/factor {
		want = k * factor
	}
	if want > n {
		want = n
	}
	if want < k {
		want = k // the tree caps at its size anyway
	}
	return want
}
