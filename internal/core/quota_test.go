package core

// Tests for the per-tenant quota layer: the token bucket's edge cases
// (zero capacity, fake-clock refill, reconciliation clamping), the
// zero-fabric-message rejection contract of ErrQuotaExhausted (the same
// parity harness as the ErrDeadlineBudget test), tenant isolation under
// concurrency, exact cost metering, and the queue-aware deadline
// budget.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"semtree/internal/cluster/clustertest"
)

// TestQuotaBucketEdges: the bucket primitive itself. A zero-capacity
// bucket admits nothing even at a zero estimate; reconciliation with an
// observed cost far above the charge clamps at zero instead of going
// negative; refunds clamp at capacity.
func TestQuotaBucketEdges(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }

	empty := newQuotaBucket(QuotaConfig{Capacity: 0, RefillPerSec: 1e6}, now)
	if _, ok := empty.take(0); ok {
		t.Fatal("zero-capacity bucket admitted a query")
	}

	b := newQuotaBucket(QuotaConfig{Capacity: 100, RefillPerSec: 0}, now)
	if charged, ok := b.take(30); !ok || charged != 30 {
		t.Fatalf("full bucket take(30) = (%v, %v), want (30, true)", charged, ok)
	}
	b.reconcile(30, 1e9) // observed cost wildly above the estimate
	if level, _ := b.snapshot(); level != 0 {
		t.Fatalf("reconciliation drove the bucket to %v, want clamp at 0", level)
	}
	if _, ok := b.take(0); ok {
		t.Fatal("drained bucket admitted a query")
	}
	b.refund(1e9)
	if level, capacity := b.snapshot(); level != 100 || capacity != 100 {
		t.Fatalf("refund level = %v (cap %v), want clamp at capacity", level, capacity)
	}
	b.reconcile(50, 0) // full refund of an uncharged overestimate
	if level, _ := b.snapshot(); level != 100 {
		t.Fatalf("over-refund level = %v, want clamp at capacity", level)
	}

	// An estimate above Capacity must not lock the tenant out: the
	// full bucket admits it, charging everything it holds, and the
	// next full-refill interval admits again.
	small := newQuotaBucket(QuotaConfig{Capacity: 50, RefillPerSec: 100}, now)
	if charged, ok := small.take(80); !ok || charged != 50 {
		t.Fatalf("full undersized bucket take(80) = (%v, %v), want (50, true)", charged, ok)
	}
	if _, ok := small.take(80); ok {
		t.Fatal("drained undersized bucket admitted an oversized estimate")
	}
	clock = clock.Add(time.Second) // refill 100 units, clamped to 50: full again
	if charged, ok := small.take(80); !ok || charged != 50 {
		t.Fatalf("refilled undersized bucket take(80) = (%v, %v), want (50, true)", charged, ok)
	}
}

// TestQuotaZeroCapacityZeroMessages: a scheduler with a zero-capacity
// quota rejects every query with ErrQuotaExhausted and — the admission
// contract — spends zero fabric messages doing so. Same message-count
// parity harness as TestAdmissionDeadlineBudget.
func TestQuotaZeroCapacityZeroMessages(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	tr, fabric, _ := latencyTree(t, r, 1500, 3)
	s := tr.NewScheduler(SchedulerConfig{Quota: &QuotaConfig{Capacity: 0, RefillPerSec: 100}})
	before := fabric.Stats().Messages
	for i := 0; i < 5; i++ {
		_, _, err := s.KNearest(context.Background(), randomPoints(r, 1, 3)[0].Coords, 3)
		if !errors.Is(err, ErrQuotaExhausted) {
			t.Fatalf("query %d: err = %v, want ErrQuotaExhausted", i, err)
		}
	}
	if after := fabric.Stats().Messages; after != before {
		t.Fatalf("quota-rejected queries still sent %d fabric messages", after-before)
	}
	st := s.Stats()
	if st.RejectedQuota != 5 || st.Admitted != 0 {
		t.Fatalf("stats = %+v, want 5 quota rejections, 0 admitted", st)
	}
	if !st.QuotaEnabled || st.QuotaCapacity != 0 || st.QuotaLevel != 0 {
		t.Fatalf("quota snapshot = enabled=%v level=%v cap=%v, want enabled zero bucket",
			st.QuotaEnabled, st.QuotaLevel, st.QuotaCapacity)
	}
	if st.MeteredDistanceEvals != 0 || st.MeteredFabricMessages != 0 || st.MeteredWall != 0 {
		t.Fatalf("rejected queries were metered: %+v", st)
	}
}

// TestQuotaRefillRestoresAdmission: drain a bucket until the tenant is
// throttled, then advance a fake clock. An advance smaller than the
// deficit interval must stay throttled; advancing past it must admit
// again — refill timing is exact, not background-goroutine-eventual.
func TestQuotaRefillRestoresAdmission(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	tr, _, _ := latencyTree(t, r, 1500, 3)

	const refillPerSec = 1000.0
	s := tr.NewScheduler(SchedulerConfig{
		Protocol: ProtocolSequential,
		Quota:    &QuotaConfig{Capacity: 5000, RefillPerSec: refillPerSec},
	})
	clock := time.Unix(1000, 0)
	s.quota.now = func() time.Time { return clock }
	s.quota.last = clock

	// Drain: with the clock frozen nothing refills, so a hammering
	// tenant must hit ErrQuotaExhausted within a bounded query count.
	q := randomPoints(r, 1, 3)[0].Coords
	throttled := false
	for i := 0; i < 500; i++ {
		_, _, err := s.KNearest(context.Background(), q, 3)
		if errors.Is(err, ErrQuotaExhausted) {
			throttled = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !throttled {
		t.Fatalf("5000-unit bucket never exhausted: %+v", s.Stats())
	}

	// The deficit is what the bucket lacks to cover the next estimate.
	level, _ := s.quota.snapshot()
	est := tr.model.estimateCost(ProtocolSequential)
	deficit := est - level
	if deficit <= 0 {
		t.Fatalf("rejected with level %v >= estimate %v", level, est)
	}

	// Half the deficit interval: still throttled.
	clock = clock.Add(time.Duration(deficit / 2 / refillPerSec * float64(time.Second)))
	if _, _, err := s.KNearest(context.Background(), q, 3); !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("half-refilled bucket: err = %v, want ErrQuotaExhausted", err)
	}

	// The full deficit interval (plus margin): admitted again.
	clock = clock.Add(time.Duration(deficit/refillPerSec*float64(time.Second)) + time.Millisecond)
	if _, _, err := s.KNearest(context.Background(), q, 3); err != nil {
		t.Fatalf("refilled bucket still rejects: %v", err)
	}
}

// TestQuotaTenantIsolation: two schedulers over the same tree are two
// tenants. A zero-capacity tenant hammering concurrently must be fully
// rejected while an unthrottled tenant's queries all run, and the
// metering/counters of each must see only its own traffic. Run under
// -race in CI, this also exercises the bucket's locking.
func TestQuotaTenantIsolation(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	tr, _, _ := latencyTree(t, r, 1500, 3)
	starved := tr.NewScheduler(SchedulerConfig{Quota: &QuotaConfig{Capacity: 0}})
	open := tr.NewScheduler(SchedulerConfig{})

	const n = 24
	qs := make([][]float64, n)
	for i := range qs {
		qs[i] = randomPoints(r, 1, 3)[0].Coords
	}
	var wg sync.WaitGroup
	var starvedRes, openRes []knnOutcome
	wg.Add(2)
	go func() {
		defer wg.Done()
		starvedRes = knnLoad(starved.KNearest, qs, 3, 4)
	}()
	go func() {
		defer wg.Done()
		openRes = knnLoad(open.KNearest, qs, 3, 4)
	}()
	wg.Wait()

	for i, qr := range starvedRes {
		if !errors.Is(qr.Err, ErrQuotaExhausted) {
			t.Fatalf("starved tenant query %d: err = %v, want ErrQuotaExhausted", i, qr.Err)
		}
	}
	for i, qr := range openRes {
		if qr.Err != nil {
			t.Fatalf("open tenant query %d: %v", i, qr.Err)
		}
	}
	sst, ost := starved.Stats(), open.Stats()
	if sst.RejectedQuota != n || sst.Admitted != 0 || sst.MeteredFabricMessages != 0 {
		t.Fatalf("starved tenant stats polluted: %+v", sst)
	}
	if ost.RejectedQuota != 0 || ost.Admitted != n || ost.MeteredFabricMessages == 0 {
		t.Fatalf("open tenant stats wrong: %+v", ost)
	}
}

// TestSchedulerMetering: the metered totals are the exact sum of the
// ExecStats every executed query reported, and MeteredCost is CostOf of
// those sums.
func TestSchedulerMetering(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	tr, _, _ := latencyTree(t, r, 1200, 3)
	s := tr.NewScheduler(SchedulerConfig{})
	qs := make([][]float64, 10)
	for i := range qs {
		qs[i] = randomPoints(r, 1, 3)[0].Coords
	}
	res := knnLoad(s.KNearest, qs, 3, 4)
	var want ExecStats
	for i, qr := range res {
		if qr.Err != nil {
			t.Fatalf("query %d: %v", i, qr.Err)
		}
		want.DistanceEvals += qr.Stats.DistanceEvals
		want.FabricMessages += qr.Stats.FabricMessages
		want.Wall += qr.Stats.Wall
	}
	st := s.Stats()
	if st.MeteredDistanceEvals != want.DistanceEvals ||
		st.MeteredFabricMessages != want.FabricMessages ||
		st.MeteredWall != want.Wall {
		t.Fatalf("metered totals %d/%d/%v, want %d/%d/%v",
			st.MeteredDistanceEvals, st.MeteredFabricMessages, st.MeteredWall,
			want.DistanceEvals, want.FabricMessages, want.Wall)
	}
	if got := CostOf(want); st.MeteredCost != got {
		t.Fatalf("MeteredCost = %v, want CostOf(sums) = %v", st.MeteredCost, got)
	}
	if st.MeteredCost <= 0 {
		t.Fatalf("metered cost not positive: %v", st.MeteredCost)
	}
}

// TestQueueAwareDeadlineBudget: a deadline that covers the query's own
// estimated wall must be admitted on an idle scheduler, but the same
// deadline must be rejected with ErrDeadlineBudget when the scheduler
// has a deep admission queue — the expected queue wait
// (Queued × EstWall / MaxInFlight) is charged against the budget.
func TestQueueAwareDeadlineBudget(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	tr, fabric, _ := latencyTree(t, r, 1500, 3)
	fabric.Arm(clustertest.Faults{Delay: 2 * time.Millisecond})
	defer fabric.Arm(clustertest.Faults{})
	s := tr.NewScheduler(SchedulerConfig{
		Protocol: ProtocolSequential, Admission: true, MaxInFlight: 1,
	})
	// Warm the model so the wall estimate is real.
	for i := 0; i < 3; i++ {
		if _, _, err := s.KNearest(context.Background(), randomPoints(r, 1, 3)[0].Coords, 3); err != nil {
			t.Fatal(err)
		}
	}
	est := tr.model.estimateWall(ProtocolSequential, tr.PartitionCount())
	if est <= 0 {
		t.Fatal("model learned no wall estimate")
	}

	// Idle scheduler: a 3×est budget is admissible.
	ctx, cancel := context.WithTimeout(context.Background(), 3*est)
	_, err := s.admit(ctx, ProtocolSequential)
	cancel()
	if err != nil {
		t.Fatalf("idle admit with 3x budget: %v", err)
	}
	s.release()

	// Ten queries already queued behind one slot: expected wait is
	// 10×est, so the same 3×est budget is now provably insufficient.
	s.queued.Add(10)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 3*est)
	defer cancel2()
	if _, err := s.admit(ctx2, ProtocolSequential); !errors.Is(err, ErrDeadlineBudget) {
		t.Fatalf("deep-queue admit: err = %v, want ErrDeadlineBudget", err)
	}
	s.queued.Add(-10)
	if st := s.Stats(); st.RejectedBudget != 1 {
		t.Fatalf("stats = %+v, want 1 budget rejection", st)
	}
}

// TestQuotaSetRate: the distributed-quota lease seam. Retargeting the
// bucket accrues at the old rate up to the switch instant, applies the
// new rate strictly afterwards, and clamps the level into the new
// capacity — a lease renewal can neither drop earned tokens nor grant
// retroactive ones.
func TestQuotaSetRate(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }

	b := newQuotaBucket(QuotaConfig{Capacity: 100, RefillPerSec: 10}, now)
	if charged, ok := b.take(100); !ok || charged != 100 {
		t.Fatalf("drain take = (%v, %v)", charged, ok)
	}
	clock = clock.Add(2 * time.Second) // +20 at the old rate
	b.setRate(50, 40)                  // halve the burst, quadruple the refill
	if level, capacity := b.snapshot(); level != 20 || capacity != 50 {
		t.Fatalf("after setRate: level %v cap %v, want 20 earned at the old rate, cap 50", level, capacity)
	}
	clock = clock.Add(time.Second) // +40 at the new rate, clamped to the new cap
	if level, _ := b.snapshot(); level != 50 {
		t.Fatalf("new-rate accrual: level %v, want clamp at new capacity 50", level)
	}

	// Shrinking capacity below the current level clamps immediately.
	b.setRate(10, 40)
	if level, capacity := b.snapshot(); level != 10 || capacity != 10 {
		t.Fatalf("shrink: level %v cap %v, want both 10", level, capacity)
	}
}

// TestSchedulerSetQuotaRate: the scheduler-level seam refuses to
// conjure a bucket for an unquota'd scheduler and retargets a real one
// so admission reflects the lease within the same instant.
func TestSchedulerSetQuotaRate(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	tr, _, _ := latencyTree(t, r, 500, 3)

	open := tr.NewScheduler(SchedulerConfig{})
	if open.SetQuotaRate(100, 10) {
		t.Fatal("SetQuotaRate on a quota-less scheduler must report false")
	}

	s := tr.NewScheduler(SchedulerConfig{Quota: &QuotaConfig{Capacity: 1000, RefillPerSec: 0}})
	clock := time.Unix(2000, 0)
	s.quota.now = func() time.Time { return clock }
	s.quota.last = clock
	if !s.SetQuotaRate(0, 0) {
		t.Fatal("SetQuotaRate on a quota'd scheduler must report true")
	}
	// Leased down to zero: the next admission is rejected with the
	// typed quota error (the drain-a-tenant lease).
	q := randomPoints(r, 1, 3)[0].Coords
	_, _, err := s.KNearest(context.Background(), q, 1)
	if !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("after a zero lease: err = %v, want ErrQuotaExhausted", err)
	}
	st := s.Stats()
	if !st.QuotaEnabled || st.QuotaCapacity != 0 {
		t.Fatalf("stats after zero lease: %+v", st)
	}

	// Leased back up: a renewal grants headroom, not instant tokens —
	// the bucket earns them at the new rate, so after a refill interval
	// admission resumes.
	if !s.SetQuotaRate(1e6, 1e6) {
		t.Fatal("re-lease failed")
	}
	clock = clock.Add(time.Second)
	if _, _, err := s.KNearest(context.Background(), q, 1); err != nil {
		t.Fatalf("after re-lease: %v", err)
	}
}
