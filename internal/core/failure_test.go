package core

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/cluster/clustertest"
	"semtree/internal/kdtree"
)

func TestQueriesUnderFailureInjection(t *testing.T) {
	// Cross-partition search messages are retried on transient
	// failures; with a bounded failure rate and enough attempts every
	// query must still return the exact answer.
	fabric := clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{Seed: 7, DropBefore: 0.10})
	defer fabric.Close()
	r := rand.New(rand.NewSource(8))
	pts := randomPoints(r, 1000, 3)
	tr := mustTree(t, Config{
		Dim: 3, BucketSize: 8,
		PartitionCapacity: 120, MaxPartitions: 6,
		Fabric: fabric, RetryAttempts: 40,
	})
	if err := tr.InsertAll(pts, 2); err != nil {
		t.Fatal(err)
	}
	if tr.PartitionCount() < 2 {
		t.Fatalf("no partitioning: %d", tr.PartitionCount())
	}
	for q := 0; q < 30; q++ {
		query := []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		got, err := tr.KNearest(context.Background(), query, 5)
		if err != nil {
			t.Fatalf("KNN under failures: %v", err)
		}
		if want := bruteKNN(pts, query, 5); !sameDistances(got, want) {
			t.Fatal("KNN wrong under failures")
		}
		gotR, err := tr.RangeSearch(context.Background(), query, 15)
		if err != nil {
			t.Fatalf("range under failures: %v", err)
		}
		if wantR := bruteRange(pts, query, 15); !sameIDSets(gotR, wantR) {
			t.Fatal("range wrong under failures")
		}
	}
	if fabric.Stats().Failures == 0 || fabric.Counts().Injected() == 0 {
		t.Fatal("no failures injected — test vacuous")
	}
}

func TestQueryFailsWhenRetriesExhausted(t *testing.T) {
	// With certain failure and no retries budget, cross-partition
	// operations must surface an error rather than return wrong data.
	fabric := cluster.NewInProc(cluster.InProcOptions{})
	r := rand.New(rand.NewSource(10))
	pts := randomPoints(r, 500, 2)
	tr := mustTree(t, Config{
		Dim: 2, BucketSize: 8,
		PartitionCapacity: 80, MaxPartitions: 4,
		Fabric: fabric, RetryAttempts: 2,
	})
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	// Close the fabric out from under the tree: every cross-partition
	// call now fails permanently.
	fabric.Close()
	if _, err := tr.KNearest(context.Background(), []float64{50, 50}, 3); err == nil {
		t.Fatal("query on dead fabric returned no error")
	}
}

// TestInsertAllAttemptsEveryPoint: InsertAll returns the first error
// but still attempts the remaining points, whatever the worker count.
// On one partition every insert is one message on one edge, and the
// fault schedule is a function of that edge's sequence numbers, so the
// number of points that land is the same for the serial and the pooled
// path — unless one of them stops at its first failure.
func TestInsertAllAttemptsEveryPoint(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(12)), 400, 2)
	landed := func(workers int) int {
		fabric := clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{Seed: 11, DropBefore: 0.2})
		defer fabric.Close()
		tr := mustTree(t, Config{Dim: 2, Fabric: fabric, RetryAttempts: 1})
		if err := tr.InsertAll(pts, workers); err == nil || fabric.Counts().Injected() == 0 {
			t.Fatal("no insert failed — test vacuous")
		}
		// Stats crosses the same lossy fabric: ask until it gets through.
		for attempt := 0; attempt < 100; attempt++ {
			if st, err := tr.Stats(); err == nil {
				return st.Points
			}
		}
		t.Fatal("Stats never got through the lossy fabric")
		return 0
	}
	if serial, pooled := landed(1), landed(4); serial != pooled {
		t.Fatalf("InsertAll landed %d points with 1 worker, %d with 4", serial, pooled)
	}
}

type transport struct {
	name string
	new  func() cluster.Fabric
}

// transports are the fabrics a fault test states its contract on, each
// under clustertest's faults.
var transports = []transport{
	{"inproc", func() cluster.Fabric { return cluster.NewInProc(cluster.InProcOptions{}) }},
	{"tcp", func() cluster.Fabric { return cluster.NewTCP() }},
}

// TestQueriesSurviveLostReplies: a query whose reply is lost after the
// partition handler ran is sent again, and the answer is still exact —
// the k-NN and range merges deduplicate by point ID, so a query needs
// no exactly-once delivery. Nine partitions are built on a clean
// fabric; drop-reply-after is then armed at 5 % for the queries alone,
// and every answer, under both k-NN protocols and for range, must be
// the flat scan's in IDs, order and distance bits.
func TestQueriesSurviveLostReplies(t *testing.T) {
	for _, tp := range transports {
		t.Run(tp.name, func(t *testing.T) {
			fabric := clustertest.New(tp.new(), clustertest.Faults{})
			defer fabric.Close()
			r := rand.New(rand.NewSource(13))
			pts := randomPoints(r, 2000, 3)
			tr := mustTree(t, Config{
				Dim: 3, BucketSize: 8,
				PartitionCapacity: 64, MaxPartitions: 9,
				Fabric: fabric, RetryAttempts: 40,
			})
			if err := tr.InsertAll(pts, 1); err != nil {
				t.Fatal(err)
			}
			if got := tr.PartitionCount(); got != 9 {
				t.Fatalf("partitions = %d, want 9", got)
			}
			queries := make([][]float64, 40)
			for i := range queries {
				queries[i] = randomPoints(r, 1, 3)[0].Coords
			}
			built := fabric.Counts()
			fabric.Arm(clustertest.Faults{Seed: 5, DropReplyAfter: 0.05})
			checkAgainstScan(t, tr, pts, queries, "under lost replies")
			c := fabric.Counts()
			runs, completed := c.Runs-built.Runs, c.Completed-built.Completed
			t.Logf("%d handler runs, %d completed calls, %d replies lost", runs, completed, c.Lost)
			if c.Injected() == 0 || runs <= completed {
				t.Fatalf("%d handler runs for %d completed calls, %d faults injected: no reply was lost after its handler ran",
					runs, completed, c.Injected())
			}
		})
	}
}

// TestFailedBulkLoadUndoesEveryInstall: a bulk load on an empty tree
// whose install replies are lost fails typed and leaves no fragment
// behind. Every reply on a nine-partition tree is dropped after
// its handler ran, so each install applied while its sender saw only
// failures; the undo must reset every partition it sent one to, not
// just those that answered. Once disarmed, every data partition holds
// no point, and a second BulkLoad answers as the flat scan.
func TestFailedBulkLoadUndoesEveryInstall(t *testing.T) {
	for _, tp := range transports {
		t.Run(tp.name, func(t *testing.T) {
			fabric := clustertest.New(tp.new(), clustertest.Faults{Seed: 3, DropReplyAfter: 1})
			defer fabric.Close()
			r := rand.New(rand.NewSource(29))
			pts := randomPoints(r, 2000, 3)
			tr := mustTree(t, Config{Dim: 3, BucketSize: 8, PartitionCapacity: 250, MaxPartitions: 9, Fabric: fabric, RetryAttempts: 3})
			err := tr.BulkLoad(context.Background(), pts)
			if err == nil {
				t.Fatal("BulkLoad succeeded with every reply lost")
			}
			if !errors.Is(err, ErrRequestRefused) && !errors.Is(err, cluster.ErrTransient) {
				t.Fatalf("BulkLoad returned an untyped error: %v", err)
			}
			fabric.Arm(clustertest.Faults{})
			if got := tr.PartitionCount(); got != 9 {
				t.Fatalf("partitions = %d, want 9", got)
			}
			if tr.Len() != 0 {
				t.Fatalf("Len = %d after a failed load", tr.Len())
			}
			for i, ps := range liveSnapshot(t, tr).Parts[1:] {
				if len(ps.IDs) != 0 {
					t.Fatalf("data partition %d holds %d points after the undo", i+1, len(ps.IDs))
				}
			}
			if err := tr.BulkLoad(context.Background(), pts); err != nil {
				t.Fatal(err)
			}
			queries := make([][]float64, 20)
			for i := range queries {
				queries[i] = randomPoints(r, 1, 3)[0].Coords
			}
			checkAgainstScan(t, tr, pts, queries, "after the second bulk load")
		})
	}
}

// TestRestoreAfterLostForward: a forward lost after its sender grew
// its boxes — the failure posture routeLocked states: a box too wide
// only prunes less — leaves the live tree with boxes wider than its
// points, and its snapshot must still restore. The fuzz tree's root
// takes one client entry at (100, 100) while every call is dropped
// before delivery, so the root grows its path, the link's box included,
// and its forward is lost. RestoreTree fits every box to the points
// below it: on InProc and on TCP under the fault seam, the restored
// tree's boxes are all exact and its k-NN and range answers are the
// flat scan's.
func TestRestoreAfterLostForward(t *testing.T) {
	far := []float64{100, 100}
	for _, tp := range transports {
		t.Run(tp.name, func(t *testing.T) {
			fabric := clustertest.New(tp.new(), clustertest.Faults{})
			defer fabric.Close()
			cfg := fuzzConfig
			cfg.Fabric, cfg.RetryAttempts = fabric, 1
			tr := mustTree(t, cfg)
			pts := fuzzPoints()
			if err := tr.BulkLoad(context.Background(), pts); err != nil || tr.PartitionCount() != 3 {
				t.Fatalf("the fuzz tree: %d partitions, %v", tr.PartitionCount(), err)
			}
			fabric.Arm(clustertest.Faults{Seed: 1, DropBefore: 1})
			_, err := tr.rootPartition().handle(context.Background(), cluster.ClientID, bulkAddReq{Entries: []batchEntry{{Point: kdtree.Point{Coords: far, ID: 1000}}}})
			fabric.Arm(clustertest.Faults{})
			if !errors.Is(err, cluster.ErrTransient) {
				t.Fatalf("the forward was not lost: %v", err)
			}
			snap := liveSnapshot(t, tr)
			if lo, hi := snap.Parts[0].Box(0); !kdtree.BoxContains(lo, hi, far) {
				t.Fatalf("the root's box [%v, %v] did not grow to %v: test vacuous", lo, hi, far)
			}
			restored, err := RestoreTree(cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			checkPartitionBoxes(t, restored)
			checkAgainstScan(t, restored, pts, [][]float64{{4, 4}, {0, 0}, {8, 9}, far, {-3, 5}}, tp.name+", restored")
		})
	}
}

// TestRebalanceRepairsExhaustedWrites: what a spill's undo leaves when
// it is lost is what Rebalance repairs. The root's first spill sends
// its leaves to eight fresh partitions, each target's first install
// applies and loses its reply, and each undo reset is lost before
// delivery (lostSpill with lostResets): the root keeps its leaves, every target keeps a
// copy of one that no link reaches, Len() counts both and the snapshot
// does not validate. None of that is a dangling link, so Rebalance
// rebuilds the tree from what is reachable: every point once, Len()
// exact, every query the flat scan's.
func TestRebalanceRepairsExhaustedWrites(t *testing.T) {
	for _, tp := range transports {
		t.Run(tp.name, func(t *testing.T) {
			inner := clustertest.New(tp.new(), clustertest.Faults{})
			defer inner.Close()
			fabric := &lostSpill{Fabric: inner, lostResets: true}
			r := rand.New(rand.NewSource(1))
			pts := randomPoints(r, 251, 3)
			queries := [][]float64{randomPoints(r, 1, 3)[0].Coords, randomPoints(r, 1, 3)[0].Coords}
			tr := mustTree(t, Config{Dim: 3, BucketSize: 8, PartitionCapacity: 250, MaxPartitions: 9, Fabric: fabric, RetryAttempts: 1})
			if err := tr.InsertAll(pts[:250], 1); err != nil || tr.PartitionCount() != 1 {
				t.Fatalf("InsertAll: %v, %d partitions before the spill", err, tr.PartitionCount())
			}
			fabric.armed.Store(true)
			err := tr.Insert(pts[250])
			fabric.armed.Store(false)
			if err != nil {
				t.Fatal(err)
			}
			if tr.PartitionCount() != 9 || tr.Len() <= len(pts) || liveSnapshot(t, tr).Validate() == nil {
				t.Fatalf("%d partitions, Len %d: the spill left no orphan — test vacuous", tr.PartitionCount(), tr.Len())
			}
			if err := tr.Rebalance(); err != nil {
				t.Fatal(err)
			}
			snap, seen, twice := liveSnapshot(t, tr), make(map[uint64]bool), 0
			for _, ps := range snap.Parts {
				for _, id := range ps.IDs {
					if seen[id] {
						twice++
					}
					seen[id] = true
				}
			}
			if twice != 0 || len(seen) != len(pts) || tr.Len() != len(pts) || cmp.Or(snap.Validate(), validArenas(snap)) != nil {
				t.Fatalf("the rebalanced tree stores %d IDs twice, %d of %d points, Len %d, or does not validate", twice, len(seen), len(pts), tr.Len())
			}
			checkAgainstScan(t, tr, pts, queries, tp.name+", rebalanced")
		})
	}
}

// TestFailedSpillReusesItsTargets: a spill whose installs all failed
// strands none of its targets. The root's first spill sends its leaves
// to eight fresh partitions, the whole budget; each install applies and
// loses its reply (lostSpill, one attempt each), and each undo reset is
// acknowledged, so the eight are the root's spares. One more Insert
// spills onto them: no data partition is left empty, the root holds no
// more than its capacity, and every query answers as the flat scan.
func TestFailedSpillReusesItsTargets(t *testing.T) {
	for _, tp := range transports {
		t.Run(tp.name, func(t *testing.T) {
			inner := clustertest.New(tp.new(), clustertest.Faults{})
			defer inner.Close()
			fabric := &lostSpill{Fabric: inner}
			r := rand.New(rand.NewSource(1))
			pts := randomPoints(r, 252, 3)
			queries := [][]float64{randomPoints(r, 1, 3)[0].Coords, randomPoints(r, 1, 3)[0].Coords}
			tr := mustTree(t, Config{Dim: 3, BucketSize: 8, PartitionCapacity: 250, MaxPartitions: 9, Fabric: fabric, RetryAttempts: 1})
			if err := tr.InsertAll(pts[:250], 1); err != nil {
				t.Fatal(err)
			}
			fabric.armed.Store(true)
			err := tr.Insert(pts[250])
			fabric.armed.Store(false)
			if st := mustStats(t, tr); err != nil || tr.PartitionCount() != 9 || st.PartitionPoints[0] != 251 {
				t.Fatalf("the failed spill: %v, %d partitions holding %v: test vacuous", err, tr.PartitionCount(), st.PartitionPoints)
			}
			if err := tr.Insert(pts[251]); err != nil {
				t.Fatal(err)
			}
			if st := mustStats(t, tr); st.PartitionPoints[0] > 250 || slices.Contains(st.PartitionPoints[1:], 0) {
				t.Fatalf("after one more Insert the partitions hold %v", st.PartitionPoints)
			}
			checkAgainstScan(t, tr, pts, queries, tp.name)
		})
	}
}

// lostSpill is the fault seam of a failed spill: once armed, every
// install a partition sends — a spill's — applies and loses its reply,
// and with lostResets every restore — the spill's undo reset — is lost
// before delivery.
type lostSpill struct {
	cluster.Fabric
	armed      atomic.Bool
	lostResets bool
}

func (f *lostSpill) Call(ctx context.Context, from, to cluster.NodeID, req any) (any, error) {
	if !f.armed.Load() {
		return f.Fabric.Call(ctx, from, to, req)
	}
	switch req.(type) {
	case installReq:
		if from != cluster.ClientID {
			if _, err := f.Fabric.Call(ctx, from, to, req); err != nil {
				return nil, err
			}
			return nil, cluster.ErrTransient
		}
	case restoreReq:
		if f.lostResets {
			return nil, cluster.ErrTransient
		}
	}
	return f.Fabric.Call(ctx, from, to, req)
}

func mustStats(t *testing.T, tr *Tree) TreeStats {
	t.Helper()
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// errClass names the class of a write's error: ok, the partitions'
// refusal, a transient failure that exhausted its retries, a snapshot
// that does not validate, a context error — or untyped.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrRequestRefused):
		return "refused"
	case errors.Is(err, cluster.ErrTransient):
		return "transient"
	case errors.Is(err, ErrSnapshotCorrupt):
		return "corrupt"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "context"
	}
	return "untyped"
}
