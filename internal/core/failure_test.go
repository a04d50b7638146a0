package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/cluster/clustertest"
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

// transports are the fabrics a fault test states its contract on, each
// under clustertest's faults.
var transports = []struct {
	name string
	new  func() cluster.Fabric
}{
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

// TestLostReplyBulkLoadNeverPanics is the lost-reply probe on an empty
// tree: a bulk load whose install or graft reply is lost is retried or
// undone, and the retried requests can name nodes the partition no
// longer has. Twenty seeds must run without a panic, and every error a
// load returns is typed: the partitions' refusal or a transient
// failure that exhausted its retries.
func TestLostReplyBulkLoadNeverPanics(t *testing.T) {
	for _, tp := range transports {
		t.Run(tp.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				fabric := clustertest.New(tp.new(), clustertest.Faults{Seed: seed, DropReplyAfter: 0.05})
				pts := randomPoints(rand.New(rand.NewSource(seed)), 2000, 3)
				tr := mustTree(t, Config{Dim: 3, BucketSize: 8, PartitionCapacity: 250, MaxPartitions: 9, Fabric: fabric, RetryAttempts: 40})
				err := tr.BulkLoad(context.Background(), pts)
				if err != nil && !errors.Is(err, ErrRequestRefused) && !errors.Is(err, cluster.ErrTransient) {
					t.Errorf("seed %d: BulkLoad returned an untyped error: %v", seed, err)
				}
				tr.Close()
				fabric.Close()
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

// TestLostReplyParity: under the fault seam, which delivers every
// message by value, a fault test on InProc states what TCP does.
// TestLostReplyBulkLoadNeverPanics's twenty seeds run on both
// transports, and each seed must end the same on both: the same error
// class, the same Len() and the same number of IDs that appear twice
// across the partitions. It does not ask for no duplicates: a lost
// install reply still installs its subtree twice (ROADMAP item 1).
func TestLostReplyParity(t *testing.T) {
	type outcome struct {
		class    string
		n, twice int
	}
	run := func(inner cluster.Fabric, seed int64) outcome {
		fabric := clustertest.New(inner, clustertest.Faults{Seed: seed, DropReplyAfter: 0.05})
		defer fabric.Close()
		pts := randomPoints(rand.New(rand.NewSource(seed)), 2000, 3)
		tr := mustTree(t, Config{Dim: 3, BucketSize: 8, PartitionCapacity: 250, MaxPartitions: 9, Fabric: fabric, RetryAttempts: 40})
		defer tr.Close()
		err := tr.BulkLoad(context.Background(), pts)
		out := outcome{class: "ok", n: tr.Len()}
		switch {
		case err == nil:
		case errors.Is(err, ErrRequestRefused):
			out.class = "refused"
		case errors.Is(err, cluster.ErrTransient):
			out.class = "transient"
		default:
			t.Fatalf("seed %d: BulkLoad returned an untyped error: %v", seed, err)
		}
		fabric.Arm(clustertest.Faults{})
		seen := make(map[uint64]int)
		for _, ps := range liveSnapshot(t, tr).Parts {
			for _, id := range ps.IDs {
				if seen[id]++; seen[id] == 2 {
					out.twice++
				}
			}
		}
		return out
	}
	for seed := int64(1); seed <= 20; seed++ {
		inproc, tcp := run(cluster.NewInProc(cluster.InProcOptions{}), seed), run(cluster.NewTCP(), seed)
		if inproc != tcp {
			t.Errorf("seed %d: InProc ends %+v, TCP %+v", seed, inproc, tcp)
		}
	}
}
