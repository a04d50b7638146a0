//semtree:clocksealed — scheduler, quota, and cost-model logic reads time only through the injected clock seam

package core

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"semtree/internal/kdtree"
)

// Protocol selects the cross-partition k-NN execution strategy of a
// query. ProtocolAuto — the default — defers the choice to the
// scheduler's online cost model, per query: the sequential protocol
// when the workload is CPU-bound, the probe-then-fan-out when per-hop
// fabric latency dominates compute. The fixed values pin one strategy
// regardless of the estimates. All three return identical results —
// the protocols are equivalence-tested — so the choice is purely a
// latency/total-work trade (§V's cost model, decided online).
type Protocol int

const (
	// ProtocolAuto picks sequential vs fan-out per query from the cost
	// model's current estimates.
	ProtocolAuto Protocol = iota
	// ProtocolSequential forces the paper's sequential Rs-forwarding
	// protocol (§III-B.3): minimal total work, one serial hop per
	// cross-partition visit.
	ProtocolSequential
	// ProtocolFanOut forces the probe-then-fan-out protocol: overlapped
	// hops, at most three serial message waves per query.
	ProtocolFanOut
	// ProtocolRange is the border-node fan-out range protocol
	// (§III-B.4); range queries have exactly one strategy, so this
	// value exists for cost estimation, not for selection.
	ProtocolRange
)

// String returns the ExecStats.Protocol vocabulary name.
func (p Protocol) String() string {
	switch p {
	case ProtocolAuto:
		return "auto"
	case ProtocolFanOut:
		return ProtocolNameParallel
	case ProtocolRange:
		return ProtocolNameRange
	default:
		return ProtocolNameSequential
	}
}

// ErrAdmissionRejected is returned for a query the scheduler refused to
// run because the max-in-flight limit was saturated and the bounded
// admission queue was full. The caller should shed the query or retry
// with backoff; waiting longer would only grow an unbounded queue.
var ErrAdmissionRejected = errors.New("core: admission rejected: scheduler at capacity")

// ErrDeadlineBudget is returned for a query whose context deadline is
// provably insufficient: the cost model's estimate of the query's wall
// time already exceeds the remaining budget, so running it would only
// burn partition compute on an answer nobody will receive.
var ErrDeadlineBudget = errors.New("core: deadline budget below estimated query cost")

// SchedulerConfig configures one Scheduler over a Tree.
type SchedulerConfig struct {
	// Protocol is the cross-partition k-NN strategy; ProtocolAuto (the
	// zero value) lets the cost model decide per query.
	Protocol Protocol
	// MaxInFlight bounds the queries executing concurrently through
	// this scheduler, across all batches and goroutines using it.
	// 0 means unlimited.
	MaxInFlight int
	// QueueDepth bounds how many admissions may wait for an in-flight
	// slot before new arrivals are rejected with ErrAdmissionRejected.
	// 0 defaults to MaxInFlight; negative means no queue (reject as
	// soon as MaxInFlight is saturated). Ignored when MaxInFlight is 0.
	QueueDepth int
	// Admission enables the deadline-budget check: a query whose
	// context deadline leaves less time than the estimated query cost —
	// including the expected wait behind the queries already queued —
	// is rejected with ErrDeadlineBudget instead of executed.
	Admission bool
	// Quota, when non-nil, enforces a per-scheduler (i.e. per-tenant)
	// token-bucket cost quota: each admission charges the cost model's
	// estimate of the query against the bucket and the completed
	// query's observed ExecStats settle the difference. An exhausted
	// bucket rejects with ErrQuotaExhausted before any fabric message
	// is spent. See QuotaConfig and CostOf for the cost-unit scale.
	Quota *QuotaConfig
}

// Scheduler runs queries against a Tree under one admission policy:
// per-query protocol choice (sequential vs fan-out, from the shared
// cost model), a max-in-flight limit with a bounded admission queue,
// and an optional deadline-budget check. KNearest and RangeSearch are
// the only admission-controlled entries to the tree — every query
// issued through them passes admit() first — and are safe for
// concurrent use; the in-flight limit is enforced across everything
// issued through the same Scheduler. Rejections are typed
// (ErrAdmissionRejected, ErrDeadlineBudget, ErrQuotaExhausted), so shed
// load is distinguishable from failed queries.
type Scheduler struct {
	t          *Tree
	cfg        SchedulerConfig
	queueDepth int64
	slots      chan struct{} // nil when MaxInFlight is unlimited
	quota      *quotaBucket  // nil when no quota is configured

	// clock is the injected time source for admission decisions —
	// time.Now in production, a fake in tests — shared with the quota
	// bucket so deadline-budget checks and refills advance together.
	clock func() time.Time

	queued         atomic.Int64 // currently waiting for a slot
	inFlight       atomic.Int64 // currently executing
	admitted       atomic.Int64
	rejectedLoad   atomic.Int64
	rejectedBudget atomic.Int64
	rejectedQuota  atomic.Int64

	// Cost metering: cumulative observed cost of every query this
	// scheduler executed (admitted and run, whether it succeeded or
	// not), drawn from the ExecStats stream. Per-scheduler, so a
	// Searcher-per-tenant facade gets per-tenant totals for free.
	meterDists atomic.Int64
	meterMsgs  atomic.Int64
	meterWall  atomic.Int64 // nanoseconds
}

// NewScheduler returns a scheduler over the tree. Schedulers share the
// tree's cost model — estimates learned through one benefit all — but
// enforce their own admission policy and keep their own counters, so a
// facade can run one per tenant or per traffic class.
func (t *Tree) NewScheduler(cfg SchedulerConfig) *Scheduler {
	s := &Scheduler{t: t, cfg: cfg, clock: time.Now}
	if cfg.Quota != nil {
		s.quota = newQuotaBucket(*cfg.Quota, s.clock)
	}
	if cfg.MaxInFlight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInFlight)
		switch {
		case cfg.QueueDepth == 0:
			s.queueDepth = int64(cfg.MaxInFlight)
		case cfg.QueueDepth > 0:
			s.queueDepth = int64(cfg.QueueDepth)
		}
	}
	return s
}

// SchedulerStats is a point-in-time snapshot of a scheduler: admission
// counters, the cost model's current estimates, and the protocol-choice
// histogram.
type SchedulerStats struct {
	// Admitted counts queries that passed admission and executed
	// (including ones that later failed or were cut off).
	Admitted int64
	// RejectedLoad counts ErrAdmissionRejected rejections.
	RejectedLoad int64
	// RejectedBudget counts ErrDeadlineBudget rejections.
	RejectedBudget int64
	// RejectedQuota counts ErrQuotaExhausted rejections.
	RejectedQuota int64
	// Queued is the number of queries currently waiting for an
	// in-flight slot; InFlight the number currently executing.
	Queued   int64
	InFlight int64
	// HopLatency and NodeCompute are the cost model's current unit
	// prices: estimated fabric transit per hop, and compute per
	// visited tree node.
	HopLatency  time.Duration
	NodeCompute time.Duration
	// EstSequentialWall and EstFanOutWall are the modeled per-query
	// wall times of the two k-NN protocols at the current estimates —
	// the comparison ProtocolAuto decides on.
	EstSequentialWall time.Duration
	EstFanOutWall     time.Duration
	// ObservedSequentialWall and ObservedFanOutWall are the EWMAs of
	// the wall times queries actually reported per protocol (zero
	// until that protocol has run). Divergence from the modeled walls
	// means the cost model's unit prices are off for this workload.
	ObservedSequentialWall time.Duration
	ObservedFanOutWall     time.Duration
	// Choices is the protocol-choice histogram of the tree's cost
	// model, keyed by executed protocol name ("sequential", "parallel")
	// with an "auto:" prefix for choices the model made (vs the caller
	// forcing the protocol). The histogram is shared across every
	// scheduler of the same tree.
	Choices map[string]int64
	// MeteredDistanceEvals, MeteredFabricMessages and MeteredWall are
	// the cumulative observed cost of every query this scheduler
	// executed — the ExecStats stream summed per scheduler, i.e. per
	// tenant when the facade runs a Searcher per tenant. Rejected
	// queries contribute nothing (they did no work).
	MeteredDistanceEvals  int64
	MeteredFabricMessages int64
	MeteredWall           time.Duration
	// MeteredCost is the metered totals priced on the cost-unit scale:
	// CostOf applied to the summed stats (CostOf is linear, so the sum
	// of per-query costs equals the cost of the sums).
	MeteredCost float64
	// QuotaCapacity and QuotaLevel describe the scheduler's token
	// bucket: the configured burst capacity and the cost units
	// currently available (after lazy refill). Both are zero when no
	// quota is configured — distinguish "no quota" from a configured
	// zero-capacity bucket via QuotaEnabled.
	QuotaEnabled  bool
	QuotaCapacity float64
	QuotaLevel    float64
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() SchedulerStats {
	parts := s.t.PartitionCount()
	hop, cmp, seqWall, fanWall, choices := s.t.model.snapshot(parts)
	estSeq, estFan := s.t.model.estimates(parts)
	st := SchedulerStats{
		Admitted:               s.admitted.Load(),
		RejectedLoad:           s.rejectedLoad.Load(),
		RejectedBudget:         s.rejectedBudget.Load(),
		RejectedQuota:          s.rejectedQuota.Load(),
		Queued:                 s.queued.Load(),
		InFlight:               s.inFlight.Load(),
		HopLatency:             hop,
		NodeCompute:            cmp,
		EstSequentialWall:      estSeq,
		EstFanOutWall:          estFan,
		ObservedSequentialWall: seqWall,
		ObservedFanOutWall:     fanWall,
		Choices:                choices,
		MeteredDistanceEvals:   s.meterDists.Load(),
		MeteredFabricMessages:  s.meterMsgs.Load(),
		MeteredWall:            time.Duration(s.meterWall.Load()),
	}
	st.MeteredCost = CostOf(ExecStats{
		DistanceEvals:  st.MeteredDistanceEvals,
		FabricMessages: st.MeteredFabricMessages,
		Wall:           st.MeteredWall,
	})
	if s.quota != nil {
		st.QuotaEnabled = true
		st.QuotaLevel, st.QuotaCapacity = s.quota.snapshot()
	}
	return st
}

// resolve maps the configured protocol to the one a query would run
// under right now (ProtocolAuto asks the model).
func (s *Scheduler) resolve() Protocol {
	if s.cfg.Protocol == ProtocolAuto {
		return s.t.model.choose(s.t.PartitionCount())
	}
	return s.cfg.Protocol
}

// admit is the admission decision for one query about to run under
// protocol p. It returns the quota charge on success — the caller then
// holds a slot until it calls release — or a typed rejection. Order: the deadline-budget check first
// (rejecting there costs nothing and frees no slot), then the quota
// bucket (charged with the cost model's estimate; refunded if a later
// stage rejects), then the in-flight limit with its bounded queue. A
// context that dies while queued returns its error. Every rejection
// happens before the query touches the fabric — a rejected query
// spends zero messages.
func (s *Scheduler) admit(ctx context.Context, p Protocol) (charged float64, err error) {
	if s.cfg.Admission {
		if dl, ok := ctx.Deadline(); ok {
			if est := s.t.model.estimateWall(p, s.t.PartitionCount()); est > 0 {
				// Queue-aware budget: a saturated scheduler makes the
				// query wait behind the ones already queued, so the
				// expected queue wait (Queued × EstWall / MaxInFlight)
				// is charged against the deadline alongside the query's
				// own estimated wall.
				wait := time.Duration(0)
				if s.cfg.MaxInFlight > 0 {
					wait = time.Duration(s.queued.Load()) * est / time.Duration(s.cfg.MaxInFlight)
				}
				if dl.Sub(s.clock()) < est+wait {
					s.rejectedBudget.Add(1)
					return 0, ErrDeadlineBudget
				}
			}
		}
	}
	if s.quota != nil {
		est := s.t.model.estimateCost(p)
		var ok bool
		if charged, ok = s.quota.take(est); !ok {
			s.rejectedQuota.Add(1)
			return 0, ErrQuotaExhausted
		}
	}
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
		default:
			// Saturated: join the bounded admission queue, or shed. A
			// query charged against the quota but shed here never ran,
			// so its charge is refunded.
			if s.queued.Add(1) > s.queueDepth {
				s.queued.Add(-1)
				s.rejectedLoad.Add(1)
				if s.quota != nil {
					s.quota.refund(charged)
				}
				return 0, ErrAdmissionRejected
			}
			select {
			case s.slots <- struct{}{}:
				s.queued.Add(-1)
			case <-ctx.Done():
				s.queued.Add(-1)
				if s.quota != nil {
					s.quota.refund(charged)
				}
				return 0, ctx.Err()
			}
		}
	}
	s.admitted.Add(1)
	s.inFlight.Add(1)
	return charged, nil
}

// release gives back what a successful admit took: the in-flight count
// and the slot.
func (s *Scheduler) release() {
	s.inFlight.Add(-1)
	if s.slots != nil {
		<-s.slots
	}
}

// complete settles one executed query: the observed ExecStats are
// metered into the scheduler's cumulative totals and, under a quota,
// reconciled against the admission charge. Runs for every admitted
// query — failed and cut-off queries did their work too.
func (s *Scheduler) complete(charged float64, st ExecStats) {
	s.meterDists.Add(st.DistanceEvals)
	s.meterMsgs.Add(st.FabricMessages)
	s.meterWall.Add(int64(st.Wall))
	if s.quota != nil {
		s.quota.reconcile(charged, CostOf(st))
	}
}

// KNearest answers one k-nearest query through the scheduler: protocol
// choice, admission, execution, settlement. The protocol is resolved
// exactly once, before admission, so the budget check prices the
// strategy that actually runs — a concurrent estimate update cannot
// split estimate and execution across strategies, and the model's
// choose() runs once per query, not twice. A rejected query returns a
// typed error and zero ExecStats.
func (s *Scheduler) KNearest(ctx context.Context, q []float64, k int) ([]kdtree.Neighbor, ExecStats, error) {
	return s.KNearestInto(ctx, nil, q, k)
}

// KNearestInto is KNearest running in sc's memory: the answer is sc's
// until its next query (KNNScratch). A nil sc is KNearest.
func (s *Scheduler) KNearestInto(ctx context.Context, sc *KNNScratch, q []float64, k int) ([]kdtree.Neighbor, ExecStats, error) {
	p := s.resolve()
	charged, err := s.admit(ctx, p)
	if err != nil {
		return nil, ExecStats{}, err
	}
	defer s.release()
	ns, st, err := s.t.knnResolved(ctx, q, k, p, s.cfg.Protocol == ProtocolAuto, sc)
	s.complete(charged, st)
	return ns, st, err
}

// RangeSearch answers one range query through the scheduler; see
// KNearest.
func (s *Scheduler) RangeSearch(ctx context.Context, q []float64, d float64) ([]kdtree.Neighbor, ExecStats, error) {
	charged, err := s.admit(ctx, ProtocolRange)
	if err != nil {
		return nil, ExecStats{}, err
	}
	defer s.release()
	ns, st, err := s.t.RangeSearchStats(ctx, q, d)
	s.complete(charged, st)
	return ns, st, err
}

// SetQuotaRate retargets the scheduler's token bucket at runtime:
// tokens already earned accrue at the old rate first, then the bucket
// refills at the new rate with the new burst capacity (the level is
// clamped into it). It reports false — and changes nothing — when the
// scheduler was built without a quota; a lease cannot conjure a bucket
// that admission never consults. This is the seam the serving tier's
// distributed-quota allocator drives: a tenant's global refill is
// split into per-front-end lease shares, each applied to that
// front-end's scheduler here.
func (s *Scheduler) SetQuotaRate(capacity, refillPerSec float64) bool {
	if s.quota == nil {
		return false
	}
	s.quota.setRate(capacity, refillPerSec)
	return true
}
