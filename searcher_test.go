package semtree

// Tests for the Searcher facade of the concurrent query engine: batch
// answers must agree with the single-query wrappers, degenerate inputs
// must be guarded, and batches must be safe against concurrent inserts
// (run with -race).

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
	"semtree/internal/synth"
	"semtree/internal/triple"
)

func sameMatches(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

func TestSearcherBatchMatchesSingle(t *testing.T) {
	ix, g := buildTestIndex(t, 800, Options{
		Seed: 3, PartitionCapacity: 100, MaxPartitions: 9, BucketSize: 8,
	})
	if ix.PartitionCount() < 4 {
		t.Fatalf("partitions = %d, want a distributed tree", ix.PartitionCount())
	}
	qs := make([]triple.Triple, 24)
	for i := range qs {
		qs[i] = g.RandomTriple()
	}

	t.Run("knn", func(t *testing.T) {
		s := ix.Searcher(WithK(5), WithParallelism(4))
		batch, err := s.SearchBatch(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			single, err := s.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i].Err != nil {
				t.Fatalf("query %d: %v", i, batch[i].Err)
			}
			if !sameMatches(batch[i].Matches, single.Matches) {
				t.Fatalf("query %d: batch and single disagree", i)
			}
		}
	})
	t.Run("range", func(t *testing.T) {
		s := ix.Searcher(WithRadius(0.4), WithParallelism(4))
		batch, err := s.SearchBatch(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			single, err := s.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i].Err != nil {
				t.Fatalf("query %d: %v", i, batch[i].Err)
			}
			if !sameMatches(batch[i].Matches, single.Matches) {
				t.Fatalf("query %d: batch and single disagree", i)
			}
		}
	})
	t.Run("range-truncated", func(t *testing.T) {
		s := ix.Searcher(WithRadius(0.5), WithK(3))
		res, err := s.Search(context.Background(), qs[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) > 3 {
			t.Fatalf("K did not truncate the ranged result: %d", len(res.Matches))
		}
	})
	t.Run("exact", func(t *testing.T) {
		s := ix.Searcher(WithK(4), WithExactFactor(3), WithParallelism(2))
		batch, err := s.SearchBatch(context.Background(), qs[:8])
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs[:8] {
			single, err := s.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i].Err != nil {
				t.Fatalf("query %d: %v", i, batch[i].Err)
			}
			if !sameMatches(batch[i].Matches, single.Matches) {
				t.Fatalf("query %d: exact batch and single disagree", i)
			}
		}
	})
}

func TestSearcherEmptyBatch(t *testing.T) {
	ix, _ := buildTestIndex(t, 50, Options{Seed: 3})
	res, err := ix.Searcher(WithK(3)).SearchBatch(context.Background(), nil)
	if err != nil || res != nil {
		t.Fatalf("empty batch = %v, %v", res, err)
	}
}

// TestExactFactorGuards pins the re-ranking guards: k <= 0 returns nil
// like KNearest, and degenerate factors can neither overflow k*factor
// nor request more candidates than the index holds.
func TestExactFactorGuards(t *testing.T) {
	ix, g := buildTestIndex(t, 100, Options{Seed: 3})
	q := g.RandomTriple()
	exact := func(k, factor int) []Match {
		t.Helper()
		res, err := ix.Searcher(WithK(k), WithExactFactor(factor)).Search(context.Background(), q)
		if err != nil {
			t.Fatalf("k=%d factor=%d: %v", k, factor, err)
		}
		return res.Matches
	}
	for _, k := range []int{0, -4} {
		if got := exact(k, 3); got != nil {
			t.Fatalf("k=%d: got %v, want nil", k, got)
		}
	}
	// A factor near MaxInt must not overflow or allocate wildly.
	huge := exact(3, math.MaxInt)
	if len(huge) != 3 {
		t.Fatalf("huge factor returned %d results", len(huge))
	}
	// With the candidate set clamped to Len, a huge factor degenerates
	// to exact brute-force ranking: it must agree with factor = Len.
	if all := exact(3, ix.Len()); !sameMatches(huge, all) {
		t.Fatalf("huge-factor ranking diverges from full re-rank")
	}
	if got, err := ix.Searcher(WithK(0)).Search(context.Background(), q); err != nil || got.Matches != nil {
		t.Fatalf("Search k=0 = %v, %v, want nil", got.Matches, err)
	}
}

// TestSearcherConcurrentWithInsert races batched searches against
// Insert; meaningful under -race (the CI test mode).
func TestSearcherConcurrentWithInsert(t *testing.T) {
	ix, g := buildTestIndex(t, 400, Options{
		Seed: 5, PartitionCapacity: 80, MaxPartitions: 9, BucketSize: 8,
	})
	extra := synth.New(synth.Config{Seed: 99}, nil)
	qs := make([]triple.Triple, 32)
	for i := range qs {
		qs[i] = g.RandomTriple()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tp := range extra.Triples(300) {
			if _, err := ix.Insert(tp, triple.Provenance{Doc: "W"}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	s := ix.Searcher(WithK(3), WithParallelism(4))
	for round := 0; round < 6; round++ {
		res, err := s.SearchBatch(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("round %d query %d: %v", round, i, r.Err)
			}
			if len(r.Matches) != 3 {
				t.Fatalf("round %d query %d: %d matches", round, i, len(r.Matches))
			}
		}
	}
	wg.Wait()
}

// TestSearchBatchPerQueryError pins the redesigned error contract: a
// query that retrieves an unindexed point carries ErrUnindexedID in its
// own Result, and the healthy queries of the batch still answer.
func TestSearchBatchPerQueryError(t *testing.T) {
	// An ID past the store's end, and one whose int conversion is
	// negative: both must be reported missing, not indexed with.
	for name, phantomID := range map[string]uint64{"past-end": 100000, "int-negative": 1 << 63} {
		t.Run(name, func(t *testing.T) { testSearchBatchPerQueryError(t, phantomID) })
	}
}

func testSearchBatchPerQueryError(t *testing.T, phantomID uint64) {
	ix, g := buildTestIndex(t, 60, Options{Seed: 7})
	// Index a point out of band: it exists in the tree but has no
	// stored triple, so resolving it must fail with the typed error.
	if err := ix.tree.Insert(kdtree.Point{Coords: make([]float64, ix.Dims()), ID: phantomID}); err != nil {
		t.Fatal(err)
	}
	qs := make([]triple.Triple, 8)
	for i := range qs {
		qs[i] = g.RandomTriple()
	}
	// K large enough that every query retrieves the phantom point.
	res, err := ix.Searcher(WithK(ix.Len()+1), WithParallelism(2)).SearchBatch(context.Background(), qs)
	if err != nil {
		t.Fatalf("batch-level error for a per-query failure: %v", err)
	}
	sawTyped := false
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("query %d retrieved the phantom point without error", i)
		}
		var unindexed ErrUnindexedID
		if errors.As(r.Err, &unindexed) {
			sawTyped = true
			if uint64(unindexed.ID) != phantomID {
				t.Fatalf("query %d: ErrUnindexedID names %d, want %d", i, unindexed.ID, phantomID)
			}
		}
	}
	if !sawTyped {
		t.Fatal("no query surfaced ErrUnindexedID")
	}
	// A small K that cannot reach the phantom answers cleanly — the
	// poisoned index is only poisoned for queries that touch the hole.
	res, err = ix.Searcher(WithK(1)).SearchBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || len(r.Matches) != 1 {
			t.Fatalf("query %d: %v (%d matches)", i, r.Err, len(r.Matches))
		}
	}
}

// TestSearchCancelled: an already-done context fails fast at every
// facade entry point with the context's error.
func TestSearchCancelled(t *testing.T) {
	ix, g := buildTestIndex(t, 60, Options{Seed: 7})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := g.RandomTriple()
	if _, err := ix.Searcher(WithK(3)).Search(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("k-NN Search err = %v", err)
	}
	if _, err := ix.Searcher(WithRadius(0.5)).Search(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("range Search err = %v", err)
	}
	if _, err := ix.KNearestIDs(ctx, q, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("KNearestIDs err = %v", err)
	}
	res, err := ix.Searcher(WithK(3)).SearchBatch(ctx, []triple.Triple{q, q})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatch err = %v", err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d err = %v", i, r.Err)
		}
	}
}

// TestSearchExecStats: every Result reports the work its query did,
// including the exact re-rank's extra distance evaluations.
func TestSearchExecStats(t *testing.T) {
	ix, g := buildTestIndex(t, 800, Options{
		Seed: 3, PartitionCapacity: 100, MaxPartitions: 9, BucketSize: 8,
	})
	qs := make([]triple.Triple, 6)
	for i := range qs {
		qs[i] = g.RandomTriple()
	}
	res, err := ix.Searcher(WithK(4), WithParallelism(2)).SearchBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		st := r.Stats
		if st.NodesVisited <= 0 || st.BucketsScanned <= 0 || st.DistanceEvals <= 0 {
			t.Fatalf("query %d: empty traversal counters %+v", i, st)
		}
		if st.FabricMessages < 1 || st.Partitions < 1 || st.Wall <= 0 {
			t.Fatalf("query %d: empty transport counters %+v", i, st)
		}
		if st.Protocol == "" {
			t.Fatalf("query %d: protocol not stamped", i)
		}
	}
	// Exact mode charges the re-rank evaluations on top.
	plain, err := ix.Searcher(WithK(4)).Search(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ix.Searcher(WithK(4), WithExactFactor(4)).Search(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.DistanceEvals <= plain.Stats.DistanceEvals {
		t.Fatalf("exact re-rank did not add distance evals: %d vs %d",
			exact.Stats.DistanceEvals, plain.Stats.DistanceEvals)
	}
}

// TestSearcherSchedulerOptions: the scheduler options must plumb
// through the facade — protocol pinning answers identically, the
// max-in-flight limit sheds surplus load with the typed error, and
// SchedulerStats reports the counters and estimates.
func TestSearcherSchedulerOptions(t *testing.T) {
	ix, g := buildTestIndex(t, 600, Options{
		Seed: 5, PartitionCapacity: 80, MaxPartitions: 9, BucketSize: 8,
	})
	qs := make([]triple.Triple, 12)
	for i := range qs {
		qs[i] = g.RandomTriple()
	}

	// The three protocols must answer identically (the core engine's
	// equivalence, re-asserted through the facade).
	auto := ix.Searcher(WithK(4), WithParallelism(4))
	seq := ix.Searcher(WithK(4), WithParallelism(4), WithProtocol(ProtocolSequential))
	fan := ix.Searcher(WithK(4), WithParallelism(4), WithProtocol(ProtocolFanOut))
	resAuto, err := auto.SearchBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	resSeq, err := seq.SearchBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	resFan, err := fan.SearchBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if resAuto[i].Err != nil || resSeq[i].Err != nil || resFan[i].Err != nil {
			t.Fatalf("query %d errored: %v %v %v", i, resAuto[i].Err, resSeq[i].Err, resFan[i].Err)
		}
		if !sameMatches(resAuto[i].Matches, resSeq[i].Matches) || !sameMatches(resAuto[i].Matches, resFan[i].Matches) {
			t.Fatalf("query %d: protocols disagree through the facade", i)
		}
	}

	st := auto.SchedulerStats()
	if st.Admitted != int64(len(qs)) {
		t.Fatalf("auto searcher admitted %d, want %d", st.Admitted, len(qs))
	}
	if st.NodeCompute <= 0 || st.EstSequentialWall <= 0 {
		t.Fatalf("estimates not learned: %+v", st)
	}
	if len(st.Choices) == 0 {
		t.Fatalf("empty protocol-choice histogram: %+v", st)
	}

	// A 1-slot searcher with no admission queue sheds concurrent
	// surplus with ErrAdmissionRejected, attributed per query.
	limited := ix.Searcher(WithK(4), WithParallelism(8), WithQueueDepth(-1), WithMaxInFlight(1))
	res, err := limited.SearchBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	answered, shed := 0, 0
	for i, r := range res {
		switch {
		case r.Err == nil:
			answered++
		case errors.Is(r.Err, ErrAdmissionRejected):
			shed++
		default:
			t.Fatalf("query %d: unexpected error %v", i, r.Err)
		}
	}
	if answered == 0 {
		t.Fatal("1-slot searcher answered nothing")
	}
	lst := limited.SchedulerStats()
	if lst.Admitted != int64(answered) || lst.RejectedLoad != int64(shed) {
		t.Fatalf("limited stats %+v vs answered=%d shed=%d", lst, answered, shed)
	}

	// Admission control: once the model knows a query's cost, a
	// microscopic deadline budget is rejected up front.
	guarded := ix.Searcher(WithK(4), WithAdmissionControl(true))
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	gres, _ := guarded.SearchBatch(ctx, qs[:1])
	if gres[0].Err == nil {
		t.Fatal("nanosecond budget accepted")
	}
	if !errors.Is(gres[0].Err, ErrDeadlineBudget) && !errors.Is(gres[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineBudget or DeadlineExceeded", gres[0].Err)
	}
}

// TestSearcherQuota: the WithQuota option enforces a per-searcher cost
// quota through the facade — a zero-capacity tenant is fully rejected
// with ErrQuotaExhausted and metered at zero, a quota'd tenant
// hammering past its budget is throttled while an unthrottled searcher
// over the same index is untouched, and SchedulerStats reports the
// bucket and the metered totals.
func TestSearcherQuota(t *testing.T) {
	ix, g := buildTestIndex(t, 600, Options{
		Seed: 7, PartitionCapacity: 100, MaxPartitions: 5, BucketSize: 8,
	})
	qs := make([]triple.Triple, 30)
	for i := range qs {
		qs[i] = g.RandomTriple()
	}

	// Zero capacity admits nothing and spends nothing.
	drained := ix.Searcher(WithK(3), WithQuota(0, 1000))
	res, err := drained.SearchBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, ErrQuotaExhausted) {
			t.Fatalf("query %d: err = %v, want ErrQuotaExhausted", i, r.Err)
		}
	}
	dst := drained.SchedulerStats()
	if dst.RejectedQuota != int64(len(qs)) || dst.Admitted != 0 || dst.MeteredCost != 0 {
		t.Fatalf("drained stats = %+v, want all quota-rejected, nothing metered", dst)
	}
	if !dst.QuotaEnabled || dst.QuotaCapacity != 0 {
		t.Fatalf("drained quota snapshot = %+v, want enabled zero bucket", dst)
	}

	// A small bucket with no refill throttles a hammering tenant after
	// its burst; an unthrottled searcher on the same index is unaffected.
	throttled := ix.Searcher(WithK(3), WithQuota(2000, 0))
	open := ix.Searcher(WithK(3))
	okCount, shed := 0, 0
	for _, q := range qs {
		_, err := throttled.Search(context.Background(), q)
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, ErrQuotaExhausted):
			shed++
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	if okCount == 0 || shed == 0 {
		t.Fatalf("ok=%d shed=%d, want a burst then throttling", okCount, shed)
	}
	for i, q := range qs {
		if _, err := open.Search(context.Background(), q); err != nil {
			t.Fatalf("open tenant query %d: %v", i, err)
		}
	}
	tst, ost := throttled.SchedulerStats(), open.SchedulerStats()
	if tst.Admitted != int64(okCount) || tst.RejectedQuota != int64(shed) {
		t.Fatalf("throttled stats %+v vs ok=%d shed=%d", tst, okCount, shed)
	}
	if ost.RejectedQuota != 0 || ost.Admitted != int64(len(qs)) {
		t.Fatalf("open tenant polluted: %+v", ost)
	}
	if tst.MeteredCost <= 0 || tst.MeteredFabricMessages == 0 {
		t.Fatalf("throttled tenant metered nothing: %+v", tst)
	}
	if tst.QuotaLevel < 0 || tst.QuotaLevel > tst.QuotaCapacity {
		t.Fatalf("bucket level %v outside [0, %v]", tst.QuotaLevel, tst.QuotaCapacity)
	}
}

// TestSearchOptionCompleteness reflects over every field of
// SearchOptions and requires a functional option that sets it: the
// variadic surface is the canonical configuration API (and the single
// source of truth for wire-request decoding in internal/serve), so a
// new struct field without a matching With* option must fail this
// test, not ship half-configured.
func TestSearchOptionCompleteness(t *testing.T) {
	// One option per field, each setting a non-zero value.
	setters := map[string]SearchOption{
		"Mode":             WithMode(ModeRange),
		"K":                WithK(7),
		"Radius":           WithRadius(0.25),
		"ExactFactor":      WithExactFactor(3),
		"Parallelism":      WithParallelism(5),
		"Protocol":         WithProtocol(ProtocolFanOut),
		"MaxInFlight":      WithMaxInFlight(11),
		"QueueDepth":       WithQueueDepth(13),
		"AdmissionControl": WithAdmissionControl(true),
		"Quota":            WithQuota(100, 10),
	}
	typ := reflect.TypeOf(SearchOptions{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		opt, ok := setters[f.Name]
		if !ok {
			t.Errorf("SearchOptions.%s has no functional option in this test's table: add With%s and list it here",
				f.Name, f.Name)
			continue
		}
		var o SearchOptions
		opt(&o)
		if reflect.ValueOf(o).Field(i).IsZero() {
			t.Errorf("the option registered for SearchOptions.%s does not set the field", f.Name)
		}
	}
	if len(setters) != typ.NumField() {
		t.Errorf("option table lists %d fields, SearchOptions has %d", len(setters), typ.NumField())
	}
}

// sameOutcome reports whether two Results are the same answer: equal
// matches, equal ExecStats apart from the measured Wall, and the same
// error (both nil, or both the same ErrUnindexedID).
func sameOutcome(a, b Result) bool {
	a.Stats.Wall, b.Stats.Wall = 0, 0
	var ua, ub ErrUnindexedID
	sameErr := a.Err == nil && b.Err == nil ||
		errors.As(a.Err, &ua) && errors.As(b.Err, &ub) && ua == ub
	return sameErr && sameMatches(a.Matches, b.Matches) && a.Stats == b.Stats
}

// TestSearchBatchContract pins what a batch is: a worker pool over
// Search. Every entry equals Search of the same triple — matches and
// ExecStats — at any pool width; a query that fails keeps its failure on
// its own Result while its neighbours answer; and when the context is
// cancelled mid-batch, entries the pool never dispatched carry the
// context's error while the dispatched ones keep their matches.
func TestSearchBatchContract(t *testing.T) {
	// The observation point counts fabric calls; once armed it cancels
	// the batch's context after a fixed number of them.
	var (
		cancelAfter atomic.Int64
		cancel      context.CancelFunc
	)
	inner := cluster.NewInProc(cluster.InProcOptions{})
	t.Cleanup(func() { inner.Close() })
	fabric := cluster.Observe(inner, func(cluster.CallSample) {
		if cancelAfter.Add(-1) == 0 {
			cancel()
		}
	})
	// One partition: every query is exactly one fabric call.
	ix, g := buildTestIndex(t, 300, Options{Seed: 5, BucketSize: 8, Fabric: fabric})
	qs := make([]triple.Triple, 64)
	for i := range qs {
		qs[i] = g.RandomTriple()
	}
	// A point indexed out of band at qs[3]'s own image: the queries
	// that retrieve it fail to resolve it, the others are healthy.
	if err := ix.tree.Insert(kdtree.Point{Coords: ix.embed(qs[3]), ID: 100000}); err != nil {
		t.Fatal(err)
	}

	for _, opts := range [][]SearchOption{
		{WithK(2)},
		{WithMode(ModeRange), WithRadius(0.3)},
		{WithK(2), WithExactFactor(3)},
	} {
		s := ix.Searcher(append(opts, WithProtocol(ProtocolSequential))...)
		want := make([]Result, len(qs))
		failed := 0
		for i, q := range qs {
			want[i], _ = s.Search(context.Background(), q)
			if want[i].Err != nil {
				failed++
			}
		}
		if failed == 0 || failed == len(qs) {
			t.Fatalf("%d of %d reference queries failed, want a mix", failed, len(qs))
		}
		for _, workers := range []int{0, 1, 3, 16} {
			got, err := s.With(WithParallelism(workers)).SearchBatch(context.Background(), qs)
			if err != nil {
				t.Fatalf("workers=%d: batch-level error for per-query failures: %v", workers, err)
			}
			for i := range qs {
				if !sameOutcome(got[i], want[i]) {
					t.Fatalf("workers=%d query %d: batch %+v, Search %+v", workers, i, got[i], want[i])
				}
			}
		}

		// Inline pool, cancelled by the fifth query's own fabric call:
		// that query and the four before it were dispatched and keep
		// their answers, the rest were not and carry the cutoff.
		ctx, stop := context.WithCancel(context.Background())
		cancel = stop
		cancelAfter.Store(5)
		got, err := s.With(WithParallelism(1)).SearchBatch(ctx, qs)
		stop()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled batch err = %v", err)
		}
		for i := range qs {
			if i < 5 && !sameOutcome(got[i], want[i]) {
				t.Fatalf("dispatched query %d lost its answer: %+v, want %+v", i, got[i], want[i])
			}
			if i >= 5 && (!errors.Is(got[i].Err, context.Canceled) || got[i].Matches != nil) {
				t.Fatalf("undispatched query %d: %+v, want the context error", i, got[i])
			}
		}
	}
}
