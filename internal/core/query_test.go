package core

// Tests for the concurrent query engine: the parallel k-NN fan-out must
// be indistinguishable from the paper's sequential Rs-forwarding
// protocol, and the batched surfaces must agree with looped single
// calls.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/cluster/clustertest"
	"semtree/internal/kdtree"
)

// sameNeighbor compares result entries exactly (Point.Coords is a
// slice, so Neighbor is not ==-comparable).
func sameNeighbor(a, b kdtree.Neighbor) bool {
	return a.Point.ID == b.Point.ID && a.Dist == b.Dist
}

// multiPartitionTree builds a tree guaranteed to spread data across
// several partitions, so k-NN traversals cross partition boundaries.
func multiPartitionTree(t *testing.T, r *rand.Rand, n, dim int) (*Tree, []kdtree.Point) {
	t.Helper()
	pts := randomPoints(r, n, dim)
	tr := mustTree(t, Config{
		Dim: dim, BucketSize: 8,
		PartitionCapacity: 64, MaxPartitions: 9,
	})
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	if got := tr.PartitionCount(); got < 4 {
		t.Fatalf("partitions = %d, want >= 4 for a meaningful fan-out", got)
	}
	return tr, pts
}

// TestKNNParallelMatchesSequential: the parallel fan-out must return
// byte-identical results — same points, same order, same distance
// bits — as the sequential protocol, across ks and queries.
func TestKNNParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr, pts := multiPartitionTree(t, r, 3000, 4)
	for trial := 0; trial < 60; trial++ {
		q := randomPoints(r, 1, 4)[0].Coords
		for _, k := range []int{1, 3, 10, 40} {
			seq, _, err := tr.knnResolved(context.Background(), q, k, ProtocolSequential, false)
			if err != nil {
				t.Fatal(err)
			}
			par, _, err := tr.knnResolved(context.Background(), q, k, ProtocolFanOut, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(seq) != len(par) {
				t.Fatalf("trial %d k=%d: len seq=%d par=%d", trial, k, len(seq), len(par))
			}
			for i := range seq {
				if seq[i].Point.ID != par[i].Point.ID || seq[i].Dist != par[i].Dist {
					t.Fatalf("trial %d k=%d item %d: seq=(%d,%v) par=(%d,%v)",
						trial, k, i, seq[i].Point.ID, seq[i].Dist, par[i].Point.ID, par[i].Dist)
				}
			}
		}
	}
	// Sanity: the parallel path matches the brute-force oracle too.
	q := randomPoints(r, 1, 4)[0].Coords
	got, err := tr.KNearest(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteKNN(pts, q, 5); !sameIDSets(got, want) {
		t.Fatalf("parallel kNN disagrees with oracle")
	}
}

// TestRangeSearchOrdered pins the range search's single-sort ordering
// contract (ascending distance, ID ties) against the oracle.
func TestRangeSearchOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	tr, pts := multiPartitionTree(t, r, 2000, 3)
	qs := make([][]float64, 16)
	for i := range qs {
		qs[i] = randomPoints(r, 1, 3)[0].Coords
	}
	const d = 25.0
	for i, q := range qs {
		got, err := tr.RangeSearch(context.Background(), q, d)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if j > 0 && !neighborLess(got[j-1], got[j]) && !sameNeighbor(got[j-1], got[j]) {
				t.Fatalf("query %d: result not in (Dist, ID) order at %d", i, j)
			}
		}
		if bf := bruteRange(pts, q, d); !sameIDSets(got, bf) {
			t.Fatalf("query %d: range disagrees with oracle", i)
		}
	}
}

// TestKNNParallelSurvivesConcurrentInserts: batched queries racing
// inserts must neither crash nor corrupt results (run with -race).
func TestKNNParallelSurvivesConcurrentInserts(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tr := mustTree(t, Config{
		Dim: 3, BucketSize: 8,
		PartitionCapacity: 64, MaxPartitions: 9,
	})
	seedPts := randomPoints(r, 500, 3)
	if err := tr.InsertAll(seedPts, 1); err != nil {
		t.Fatal(err)
	}
	extra := randomPoints(r, 500, 3)
	for i := range extra {
		extra[i].ID += 500
	}
	qs := make([][]float64, 64)
	for i := range qs {
		qs[i] = randomPoints(r, 1, 3)[0].Coords
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range extra {
			if err := tr.Insert(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 8; round++ {
		for i, qr := range knnLoad(tr.KNearestStats, qs, 3, 4) {
			if qr.Err != nil {
				t.Fatal(qr.Err)
			}
			if len(qr.Neighbors) != 3 {
				t.Fatalf("round %d query %d: %d results", round, i, len(qr.Neighbors))
			}
		}
	}
	wg.Wait()
}

// TestKNNParallelPropagatesFabricErrors: on a lossy fabric, the
// parallel fan-out must either answer exactly (retries absorbed the
// failures) or surface an error — never return a silent partial set.
// Faults must have been injected and some query answered, or the test
// proves nothing.
func TestKNNParallelPropagatesFabricErrors(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	pts := randomPoints(r, 1000, 3)
	fabric := clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{Seed: 1, DropBefore: 0.05})
	defer fabric.Close()
	tr, err := New(Config{
		Dim: 3, BucketSize: 8,
		PartitionCapacity: 64, MaxPartitions: 9,
		Fabric: fabric, RetryAttempts: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	answered := 0
	for trial := 0; trial < 30; trial++ {
		q := randomPoints(r, 1, 3)[0].Coords
		got, err := tr.KNearest(context.Background(), q, 5)
		if err != nil {
			continue // surfaced, not swallowed: acceptable on a lossy fabric
		}
		if want := bruteKNN(pts, q, 5); !sameIDSets(got, want) {
			t.Fatalf("trial %d: lossy fabric produced a silent partial answer", trial)
		}
		answered++
	}
	if answered == 0 || fabric.Counts().Injected() == 0 {
		t.Fatalf("%d of 30 queries answered, %d faults injected: the test proves nothing", answered, fabric.Counts().Injected())
	}
}

// TestKNNEquivalenceOnTies stresses the tie handling the random-float
// equivalence test cannot reach: integer grid coordinates put many
// points at exactly equal distances and exactly on splitting planes,
// where an over-eager prune (skip at guard == worst) would let the two
// protocols keep different tied winners.
func TestKNNEquivalenceOnTies(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	pts := make([]kdtree.Point, 1500)
	for i := range pts {
		pts[i] = kdtree.Point{
			Coords: []float64{float64(r.Intn(6)), float64(r.Intn(6)), float64(r.Intn(6))},
			ID:     uint64(i),
		}
	}
	tr := mustTree(t, Config{
		Dim: 3, BucketSize: 8,
		PartitionCapacity: 64, MaxPartitions: 9,
	})
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		q := []float64{float64(r.Intn(6)), float64(r.Intn(6)), float64(r.Intn(6))}
		for _, k := range []int{1, 3, 8} {
			seq, _, err := tr.knnResolved(context.Background(), q, k, ProtocolSequential, false)
			if err != nil {
				t.Fatal(err)
			}
			par, _, err := tr.knnResolved(context.Background(), q, k, ProtocolFanOut, false)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteKNN(pts, q, k)
			if len(seq) != len(par) || len(seq) != len(want) {
				t.Fatalf("trial %d k=%d: lens seq=%d par=%d brute=%d",
					trial, k, len(seq), len(par), len(want))
			}
			for i := range seq {
				if seq[i].Point.ID != par[i].Point.ID || seq[i].Dist != par[i].Dist {
					t.Fatalf("trial %d k=%d item %d: seq=(%d,%v) par=(%d,%v)",
						trial, k, i, seq[i].Point.ID, seq[i].Dist, par[i].Point.ID, par[i].Dist)
				}
				if seq[i].Point.ID != want[i].Point.ID {
					t.Fatalf("trial %d k=%d item %d: tie-break disagrees with oracle: got %d want %d",
						trial, k, i, seq[i].Point.ID, want[i].Point.ID)
				}
			}
		}
	}
}

// --- context-first API: cancellation, deadlines, execution stats ---

// waitGoroutines polls until the goroutine count settles back to at
// most base (with slack for runtime background goroutines).
func waitGoroutines(t *testing.T, base int) {
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

// TestKNNCancelledBeforeStart: an already-cancelled context must return
// context.Canceled without sending a single fabric message.
func TestKNNCancelledBeforeStart(t *testing.T) {
	fabric := cluster.NewInProc(cluster.InProcOptions{})
	defer fabric.Close()
	r := rand.New(rand.NewSource(31))
	tr := mustTree(t, Config{Dim: 3, BucketSize: 8, Fabric: fabric})
	if err := tr.InsertAll(randomPoints(r, 200, 3), 1); err != nil {
		t.Fatal(err)
	}
	before := fabric.Stats().Messages
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []Protocol{ProtocolSequential, ProtocolFanOut} {
		if _, _, err := tr.knnResolved(ctx, []float64{1, 2, 3}, 5, p, false); !errors.Is(err, context.Canceled) {
			t.Fatalf("protocol=%v: err = %v, want context.Canceled", p, err)
		}
	}
	if _, err := tr.KNearest(ctx, []float64{1, 2, 3}, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("auto protocol: err = %v, want context.Canceled", err)
	}
	if _, err := tr.RangeSearch(ctx, []float64{1, 2, 3}, 10); !errors.Is(err, context.Canceled) {
		t.Fatal("range did not observe the dead context")
	}
	if after := fabric.Stats().Messages; after != before {
		t.Fatalf("dead-context queries still sent %d messages", after-before)
	}
}

// TestKNNDeadlineAbortsFanOut: on a fabric whose per-hop latency far
// exceeds the query deadline, a multi-partition fan-out must return
// promptly with the deadline error — before any slow partition could
// have replied (one hop costs 300ms, so answering at all within the
// asserted bound proves the outstanding replies were abandoned) — and
// must not leak its fan-out goroutines.
func TestKNNDeadlineAbortsFanOut(t *testing.T) {
	const hop = 300 * time.Millisecond
	r := rand.New(rand.NewSource(37))
	pts := randomPoints(r, 3000, 4)
	// Build over a fast fabric, then degrade the network so only the
	// query pays the hop latency.
	fabric := cluster.NewInProc(cluster.InProcOptions{})
	defer fabric.Close()
	tr := mustTree(t, Config{
		Dim: 4, BucketSize: 8,
		PartitionCapacity: 64, MaxPartitions: 9, Fabric: fabric,
	})
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	if tr.PartitionCount() < 4 {
		t.Fatalf("partitions = %d, want a multi-partition fan-out", tr.PartitionCount())
	}
	fabric.SetLatency(hop)
	base := runtime.NumGoroutine() + 4
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.KNearest(ctx, randomPoints(r, 1, 4)[0].Coords, 10)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// Generous wall-clock bound: well under one 300ms hop, so the
	// query cannot have waited out even a single slow partition reply.
	if elapsed >= hop {
		t.Fatalf("expired query took %v, want < one %v hop", elapsed, hop)
	}
	waitGoroutines(t, base)
}

// TestRunBatchStopsOnCancel: once the context is done the pool must
// stop dispatching; items already dispatched finish.
func TestRunBatchStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := RunBatch(ctx, 1000, 4, func(i int) error {
		if ran.Add(1) == 8 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("pool dispatched the whole batch (%d) despite cancellation", n)
	}
}

// TestExecStatsPopulated: with a background context the redesigned API
// answers exactly as before and reports the work done — fabric
// messages, nodes visited, partitions — for both protocols and ranges.
func TestExecStatsPopulated(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	tr, pts := multiPartitionTree(t, r, 3000, 4)
	q := randomPoints(r, 1, 4)[0].Coords

	ns, st, err := tr.KNearestStats(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteKNN(pts, q, 5); !sameIDSets(ns, want) {
		t.Fatal("stats variant disagrees with oracle")
	}
	if st.Protocol != ProtocolNameParallel && st.Protocol != ProtocolNameSequential {
		// ProtocolAuto stamps whichever protocol the cost model chose;
		// on an in-process fabric that is normally the sequential one.
		t.Fatalf("protocol = %q", st.Protocol)
	}
	if st.NodesVisited <= 0 || st.BucketsScanned <= 0 || st.DistanceEvals <= 0 {
		t.Fatalf("traversal counters empty: %+v", st)
	}
	if st.FabricMessages < 2 || st.Partitions < 2 {
		t.Fatalf("cross-partition query reported %d messages over %d partitions", st.FabricMessages, st.Partitions)
	}
	if st.Wall <= 0 {
		t.Fatalf("wall time not measured: %+v", st)
	}
	// The message counter must agree with the fabric's own accounting.
	fabric := cluster.NewInProc(cluster.InProcOptions{})
	defer fabric.Close()
	tr2 := mustTree(t, Config{
		Dim: 4, BucketSize: 8,
		PartitionCapacity: 64, MaxPartitions: 9, Fabric: fabric,
	})
	if err := tr2.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	for _, protocol := range []Protocol{ProtocolFanOut, ProtocolSequential} {
		before := fabric.Stats().Messages
		_, st, err := tr2.knnResolved(context.Background(), q, 5, protocol, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := fabric.Stats().Messages - before; got != st.FabricMessages {
			t.Fatalf("protocol=%v: ExecStats.FabricMessages = %d, fabric counted %d", protocol, st.FabricMessages, got)
		}
	}

	// Range stats.
	rs, rst, err := tr.RangeSearchStats(context.Background(), q, 25)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteRange(pts, q, 25); !sameIDSets(rs, want) {
		t.Fatal("range stats variant disagrees with oracle")
	}
	if rst.Protocol != ProtocolNameRange || rst.NodesVisited <= 0 {
		t.Fatalf("range stats empty: %+v", rst)
	}
}
