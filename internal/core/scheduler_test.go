package core

// Tests for the self-tuning query scheduler: ProtocolAuto must be
// byte-identical to both fixed protocols at any fabric latency, the
// admission controller must reject with its typed errors (and only
// then), and the cost model must converge onto a latency change within
// a bounded number of queries — the bound that pins the EWMA half-life
// constant.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// latencyTree builds a multi-partition tree over a caller-held InProc
// fabric (zero latency during the build; degrade with SetLatency).
func latencyTree(t *testing.T, r *rand.Rand, n, dim int) (*Tree, *cluster.InProc, []kdtree.Point) {
	t.Helper()
	fabric := cluster.NewInProc(cluster.InProcOptions{})
	t.Cleanup(func() { fabric.Close() })
	tr, err := New(Config{
		Dim: dim, BucketSize: 8,
		PartitionCapacity: 64, MaxPartitions: 9, Fabric: fabric,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	pts := randomPoints(r, n, dim)
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	if got := tr.PartitionCount(); got < 4 {
		t.Fatalf("partitions = %d, want >= 4 for a meaningful protocol choice", got)
	}
	return tr, fabric, pts
}

// TestProtocolAutoEquivalence: ProtocolAuto must return byte-identical
// results — same points, same order, same distance bits — as both fixed
// protocols, whichever one it resolves to, on a zero-latency fabric and
// under 50ms hops (where it resolves to the other one).
func TestProtocolAutoEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	tr, fabric, _ := latencyTree(t, r, 2500, 4)
	qs := make([][]float64, 3)
	for i := range qs {
		qs[i] = randomPoints(r, 1, 4)[0].Coords
	}
	for _, hop := range []time.Duration{0, 50 * time.Millisecond} {
		fabric.SetLatency(hop)
		for qi, q := range qs {
			for _, k := range []int{3, 10} {
				seq, _, err := tr.knnResolved(context.Background(), q, k, ProtocolSequential, false)
				if err != nil {
					t.Fatal(err)
				}
				par, _, err := tr.knnResolved(context.Background(), q, k, ProtocolFanOut, false)
				if err != nil {
					t.Fatal(err)
				}
				auto, st, err := tr.KNearestStats(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				if st.Protocol != ProtocolNameSequential && st.Protocol != ProtocolNameParallel {
					t.Fatalf("hop=%v q=%d: auto stamped protocol %q", hop, qi, st.Protocol)
				}
				if len(auto) != len(seq) || len(seq) != len(par) {
					t.Fatalf("hop=%v q=%d k=%d: lens auto=%d seq=%d par=%d",
						hop, qi, k, len(auto), len(seq), len(par))
				}
				for i := range auto {
					if auto[i].Point.ID != seq[i].Point.ID || auto[i].Dist != seq[i].Dist ||
						auto[i].Point.ID != par[i].Point.ID || auto[i].Dist != par[i].Dist {
						t.Fatalf("hop=%v q=%d k=%d item %d: auto=(%d,%v) seq=(%d,%v) par=(%d,%v)",
							hop, qi, k, i,
							auto[i].Point.ID, auto[i].Dist,
							seq[i].Point.ID, seq[i].Dist,
							par[i].Point.ID, par[i].Dist)
					}
				}
			}
		}
	}
}

// TestAdmissionMaxInFlight: admit() must hand out exactly MaxInFlight
// slots, queue up to QueueDepth admissions behind them, and shed the
// rest with ErrAdmissionRejected. Exercised directly for determinism,
// then end-to-end through a saturated scheduler batch with a
// goroutine-leak check.
func TestAdmissionMaxInFlight(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	tr, fabric, _ := latencyTree(t, r, 1500, 3)

	// Direct: MaxInFlight=1, no queue.
	s := tr.NewScheduler(SchedulerConfig{MaxInFlight: 1, QueueDepth: -1})
	release, _, err := s.admit(context.Background(), ProtocolSequential)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.admit(context.Background(), ProtocolSequential); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("saturated no-queue admit: err = %v, want ErrAdmissionRejected", err)
	}
	release()
	if release, _, err = s.admit(context.Background(), ProtocolSequential); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
	release()
	if st := s.Stats(); st.Admitted != 2 || st.RejectedLoad != 1 {
		t.Fatalf("stats = %+v, want 2 admitted / 1 load-rejected", st)
	}

	// Direct: MaxInFlight=1 with a one-deep queue. The queued admit
	// must block until the slot frees, and a third arrival must shed.
	s = tr.NewScheduler(SchedulerConfig{MaxInFlight: 1, QueueDepth: 1})
	release, _, err = s.admit(context.Background(), ProtocolSequential)
	if err != nil {
		t.Fatal(err)
	}
	queuedDone := make(chan error, 1)
	go func() {
		rel, _, err := s.admit(context.Background(), ProtocolSequential)
		if err == nil {
			rel()
		}
		queuedDone <- err
	}()
	// Wait until the second admit is actually queued, then overflow.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second admit never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.admit(context.Background(), ProtocolSequential); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("queue overflow: err = %v, want ErrAdmissionRejected", err)
	}
	release()
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued admit failed: %v", err)
	}

	// End to end: a wide batch through MaxInFlight=1 with no queue on a
	// slow fabric must answer some queries and shed the concurrent
	// surplus with the typed error — and must not leak goroutines.
	fabric.SetLatency(2 * time.Millisecond)
	base := runtime.NumGoroutine() + 4
	s = tr.NewScheduler(SchedulerConfig{Protocol: ProtocolSequential, MaxInFlight: 1, QueueDepth: -1})
	qs := make([][]float64, 16)
	for i := range qs {
		qs[i] = randomPoints(r, 1, 3)[0].Coords
	}
	res := knnLoad(s.KNearest, qs, 3, 8)
	answered, shed := 0, 0
	for i, qr := range res {
		switch {
		case qr.Err == nil:
			answered++
		case errors.Is(qr.Err, ErrAdmissionRejected):
			shed++
		default:
			t.Fatalf("entry %d: unexpected error %v", i, qr.Err)
		}
	}
	if answered == 0 || shed == 0 {
		t.Fatalf("answered=%d shed=%d, want both > 0 (8 workers through 1 slot)", answered, shed)
	}
	if st := s.Stats(); st.Admitted != int64(answered) || st.RejectedLoad != int64(shed) {
		t.Fatalf("stats %+v disagree with outcomes answered=%d shed=%d", st, answered, shed)
	}
	fabric.SetLatency(0)
	waitSchedGoroutines(t, base)
}

// knnOutcome is one query's outcome under knnLoad.
type knnOutcome struct {
	Neighbors []kdtree.Neighbor
	Stats     ExecStats
	Err       error
}

// knnLoad generates concurrent load for the scheduler, quota and
// concurrency tests: it runs knn — Scheduler.KNearest or
// Tree.KNearestStats — once per element of qs on a RunBatch pool and
// returns every query's own outcome.
func knnLoad(knn func(context.Context, []float64, int) ([]kdtree.Neighbor, ExecStats, error), qs [][]float64, k, workers int) []knnOutcome {
	out := make([]knnOutcome, len(qs))
	_ = RunBatch(context.Background(), len(qs), workers, func(i int) error {
		out[i].Neighbors, out[i].Stats, out[i].Err = knn(context.Background(), qs[i], k)
		return nil
	})
	return out
}

// waitSchedGoroutines polls until the goroutine count settles to base.
func waitSchedGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, want <= %d", runtime.NumGoroutine(), base)
}

// TestAdmissionDeadlineBudget: once the cost model has learned that a
// query costs tens of milliseconds on this fabric, a query arriving
// with a 1ms deadline budget must be rejected with ErrDeadlineBudget —
// before any fabric message is spent on it.
func TestAdmissionDeadlineBudget(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	tr, fabric, _ := latencyTree(t, r, 1500, 3)
	fabric.SetLatency(20 * time.Millisecond)
	s := tr.NewScheduler(SchedulerConfig{Admission: true})
	// Warm the model: a few queries teach it the per-hop price.
	for i := 0; i < 3; i++ {
		q := randomPoints(r, 1, 3)[0].Coords
		if _, _, err := s.KNearest(context.Background(), q, 3); err != nil {
			t.Fatal(err)
		}
	}
	if est := tr.model.estimateWall(ProtocolSequential, tr.PartitionCount()); est < 10*time.Millisecond {
		t.Fatalf("model did not learn the fabric: sequential estimate %v", est)
	}
	before := fabric.Stats().Messages
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, err := s.KNearest(ctx, randomPoints(r, 1, 3)[0].Coords, 3)
	if !errors.Is(err, ErrDeadlineBudget) {
		t.Fatalf("err = %v, want ErrDeadlineBudget", err)
	}
	if after := fabric.Stats().Messages; after != before {
		t.Fatalf("budget-rejected query still sent %d messages", after-before)
	}
	if st := s.Stats(); st.RejectedBudget != 1 {
		t.Fatalf("stats = %+v, want 1 budget rejection", st)
	}
	// Without admission control the same query runs (and times out on
	// its own terms) instead of being shed.
	plain := tr.NewScheduler(SchedulerConfig{})
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	if _, _, err := plain.KNearest(ctx2, randomPoints(r, 1, 3)[0].Coords, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("plain scheduler err = %v, want DeadlineExceeded", err)
	}
	fabric.SetLatency(0)
}

// TestCostModelConvergence: a step in the fabric's hop latency must be
// observed by the cost model within a bounded number of queries — the
// budgets below (12 queries up, 60 queries down) pin the EWMA half-life
// of ~2.4 samples: a multi-partition query contributes several leaf-hop
// samples, so the estimate crosses the decision threshold well inside
// them.
//
// The queries are real — which calls each one issues and the work
// counters in their replies are fixed by the tree and the query — but
// the prices are simulated: every recorded call is replayed into a
// model of the test's own with RTT = hop + nodes × compute, so what the
// machine is doing while the test runs cannot move the estimates.
func TestCostModelConvergence(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	// Higher-dimensional workload: a k=10 query crosses most of the 9
	// partitions (~7.5 sequential hops vs 3 fan-out waves), so the
	// latency regime genuinely decides the protocol. In low dimensions
	// sequential pruning is so effective (~2.5 hops) that sequential
	// wins at any latency — and the model correctly never flips.
	tr, _, _ := latencyTree(t, r, 2000, 6)
	var (
		mu    sync.Mutex
		calls []cluster.CallSample
	)
	tr.fabric = cluster.Observe(tr.fabric, func(s cluster.CallSample) {
		mu.Lock()
		calls = append(calls, s)
		mu.Unlock()
	})

	const computeNs = 100 // simulated price of one visited node
	var hop time.Duration // simulated price of one fabric transit
	m := newCostModel()
	parts := tr.PartitionCount()
	query := func() string {
		t.Helper()
		proto := m.choose(parts)
		calls = calls[:0]
		_, st, err := tr.knnResolved(context.Background(), randomPoints(r, 1, 6)[0].Coords, 10, proto, true)
		if err != nil {
			t.Fatal(err)
		}
		// Fan-out calls complete in any order; a sample's effect depends
		// only on its destination once the prices are fixed.
		sort.SliceStable(calls, func(i, j int) bool { return calls[i].To < calls[j].To })
		for _, s := range calls {
			ws := s.Resp.(knnResp).Stats
			if ws.Msgs == 0 { // a leaf call: one hop-free traversal, one hop sample
				m.observeCompute(time.Duration(ws.Nodes*computeNs), ws.Nodes)
			}
			s.RTT = hop + time.Duration(ws.Nodes*computeNs)
			m.observeSample(s)
		}
		st.Wall = time.Duration(st.FabricMessages)*hop + time.Duration(st.NodesVisited*computeNs)
		m.observeQuery(shapeIdx(proto), st)
		return st.Protocol
	}
	// Settle at zero latency: the model must land on the sequential
	// protocol (CPU-bound regime).
	for i := 0; i < 10; i++ {
		query()
	}
	if got := query(); got != ProtocolNameSequential {
		t.Fatalf("zero-latency steady state chose %q, want sequential", got)
	}

	// Degrade the network: the choice must flip to the fan-out within
	// 12 queries of the change.
	hop = 5 * time.Millisecond
	flipped := -1
	for i := 0; i < 12; i++ {
		if query() == ProtocolNameParallel {
			flipped = i
			break
		}
	}
	if flipped < 0 {
		estSeq, estFan := m.estimates(parts)
		t.Fatalf("5ms hops not observed within 12 queries: modeled sequential %v, fan-out %v", estSeq, estFan)
	}
	t.Logf("flipped to fan-out after %d queries at 5ms hops", flipped+1)

	// Restore the fast network: the hop estimate decays back through
	// the fan-out's own leaf calls, so the choice must return to
	// sequential within a bounded number of queries even though the
	// sequential protocol is not being exercised at all.
	hop = 0
	flipped = -1
	for i := 0; i < 60; i++ {
		if query() == ProtocolNameSequential {
			flipped = i
			break
		}
	}
	if flipped < 0 {
		estSeq, estFan := m.estimates(parts)
		t.Fatalf("restored zero latency not observed within 60 queries: modeled sequential %v, fan-out %v", estSeq, estFan)
	}
	t.Logf("flipped back to sequential after %d queries at zero latency", flipped+1)
}

// TestSchedulerStatsSnapshot: the snapshot must report the admission
// counters, live estimates and the protocol-choice histogram.
func TestSchedulerStatsSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	tr, _, _ := latencyTree(t, r, 1200, 3)
	s := tr.NewScheduler(SchedulerConfig{})
	qs := make([][]float64, 8)
	for i := range qs {
		qs[i] = randomPoints(r, 1, 3)[0].Coords
	}
	res := knnLoad(s.KNearest, qs, 3, 4)
	for i, qr := range res {
		if qr.Err != nil {
			t.Fatalf("entry %d: %v", i, qr.Err)
		}
	}
	st := s.Stats()
	if st.Admitted != int64(len(qs)) || st.RejectedLoad != 0 || st.RejectedBudget != 0 {
		t.Fatalf("admission counters wrong: %+v", st)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("idle scheduler reports in-flight work: %+v", st)
	}
	if st.NodeCompute <= 0 {
		t.Fatalf("compute estimate not learned: %+v", st)
	}
	if st.EstSequentialWall <= 0 || st.EstFanOutWall <= 0 {
		t.Fatalf("modeled walls empty: %+v", st)
	}
	if st.ObservedSequentialWall <= 0 {
		// Zero-latency auto resolves to sequential, so its observed
		// wall EWMA must be populated (fan-out's may stay zero).
		t.Fatalf("observed sequential wall empty: %+v", st)
	}
	total := int64(0)
	for _, n := range st.Choices {
		total += n
	}
	if total < int64(len(qs)) {
		t.Fatalf("choice histogram undercounts: %+v", st.Choices)
	}
}

// TestAdmissionClockSeam: the deadline-budget check reads time through
// the scheduler's injected clock (the same seam the quota bucket uses),
// so a test can flip one admission decision deterministically: with the
// context deadline fixed, only the fake clock's position decides.
func TestAdmissionClockSeam(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	tr, fabric, _ := latencyTree(t, r, 1500, 3)
	fabric.SetLatency(20 * time.Millisecond)
	s := tr.NewScheduler(SchedulerConfig{Admission: true})
	// Warm the model so estimateWall is meaningful.
	for i := 0; i < 3; i++ {
		q := randomPoints(r, 1, 3)[0].Coords
		if _, _, err := s.KNearest(context.Background(), q, 3); err != nil {
			t.Fatal(err)
		}
	}
	est := tr.model.estimateWall(ProtocolSequential, tr.PartitionCount())
	if est <= 0 {
		t.Fatal("cost model learned nothing; cannot exercise the budget check")
	}
	// A real-clock deadline far in the future: the context itself never
	// expires, the fake clock alone decides the budget.
	dl := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()

	s.clock = func() time.Time { return dl.Add(-10 * est) }
	release, _, err := s.admit(ctx, ProtocolSequential)
	if err != nil {
		t.Fatalf("admit with 10x the estimated budget: %v", err)
	}
	release()

	s.clock = func() time.Time { return dl.Add(-est / 2) }
	if _, _, err := s.admit(ctx, ProtocolSequential); !errors.Is(err, ErrDeadlineBudget) {
		t.Fatalf("admit with half the estimated budget: err = %v, want ErrDeadlineBudget", err)
	}
	if st := s.Stats(); st.RejectedBudget != 1 {
		t.Fatalf("stats = %+v, want exactly 1 budget rejection", st)
	}
}
