package core

import (
	"context"
	"errors"
	"fmt"
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
// delivery (lostUndo): the root keeps its leaves, every target keeps a
// copy of one that no link reaches, Len() counts both and the snapshot
// does not validate. None of that is a dangling link, so Rebalance
// rebuilds the tree from what is reachable: every point once, Len()
// exact, every query the flat scan's.
func TestRebalanceRepairsExhaustedWrites(t *testing.T) {
	for _, tp := range transports {
		t.Run(tp.name, func(t *testing.T) {
			inner := clustertest.New(tp.new(), clustertest.Faults{})
			defer inner.Close()
			fabric := &lostUndo{Fabric: inner}
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
			c := &landOnce{t: t, pts: pts, queries: queries}
			if twice := c.check(tr, nil, tp.name+", rebalanced"); twice != 0 || liveSnapshot(t, tr).Validate() != nil {
				t.Fatalf("the rebalanced tree stores %d IDs twice or does not validate", twice)
			}
		})
	}
}

// lostUndo is TestRebalanceRepairsExhaustedWrites's fault seam: once
// armed, every install applies and loses its reply, and every restore
// — a spill's undo reset — is lost before delivery.
type lostUndo struct {
	cluster.Fabric
	armed atomic.Bool
}

func (f *lostUndo) Call(ctx context.Context, from, to cluster.NodeID, req any) (any, error) {
	if !f.armed.Load() {
		return f.Fabric.Call(ctx, from, to, req)
	}
	switch req.(type) {
	case installReq:
		if _, err := f.Fabric.Call(ctx, from, to, req); err != nil {
			return nil, err
		}
		return nil, cluster.ErrTransient
	case restoreReq:
		return nil, cluster.ErrTransient
	}
	return f.Fabric.Call(ctx, from, to, req)
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

// TestLostReplyParity: under the fault seam, which delivers every
// message by value, a fault test on InProc states what TCP does.
// TestLostReplyBulkLoadNeverPanics's twenty seeds run on both
// transports, and each seed must end the same on both: the same error
// class and the same Len(). No ID may appear twice across the
// partitions: a retried install is answered by its Seq, not applied
// again.
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
		out := outcome{class: errClass(err), n: tr.Len()}
		if out.class != "ok" && out.class != "refused" && out.class != "transient" {
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
		if inproc.twice != 0 || tcp.twice != 0 {
			t.Errorf("seed %d: IDs stored twice: %d on InProc, %d on TCP", seed, inproc.twice, tcp.twice)
		}
	}
}

// TestWritesLandOnceUnderLostReplies holds every write path to one
// delivery contract: a write whose reply is lost after its handler ran
// is sent again and still lands once — a point by its ID at the leaf,
// an install by its Seq at the partition. Twenty seeds run on both
// transports under the fault seam: nine partitions, RetryAttempts 40,
// drop-reply-after at 5 % armed for the writes alone. The paths, in
// order: BulkLoad of all 2 000 points on an empty tree, Rebalance,
// RestoreTree from its snapshot; then, on a fresh tree for each worker
// count, InsertAll of the first 1 000 with 1 and with 4 workers (the
// root spills under them) and BulkLoad of the rest into that live tree.
// After each step, disarmed (landOnce.check): Len() equals the distinct
// IDs stored, no ID is stored twice, every point whose write returned
// nil is stored, every query answers as the flat scan, and every error
// is typed. Each seed's steps end the same on both transports — the
// same error class, Len() and copies — and every step lost at least one
// reply on some seed.
func TestWritesLandOnceUnderLostReplies(t *testing.T) {
	lost := make(map[string]int64) // replies lost, by step, over every run
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var ends [2][]landOutcome
			for i, tp := range transports {
				t.Run(tp.name, func(t *testing.T) {
					c := &landOnce{t: t, seed: seed, name: tp.name, fabric: clustertest.New(tp.new(), clustertest.Faults{}), lost: lost}
					defer c.fabric.Close()
					c.run()
					ends[i] = c.ends
				})
			}
			if !slices.Equal(ends[0], ends[1]) {
				t.Errorf("seed %d: %s ends %+v, %s %+v", seed, transports[0].name, ends[0], transports[1].name, ends[1])
			}
		})
	}
	t.Logf("replies lost, by step, over every run: %v", lost)
	for _, step := range landSteps {
		if lost[step] == 0 {
			t.Errorf("step %q lost no reply on any seed: vacuous", step)
		}
	}
}

// TestSpillLandsOnceUnderLostReplies: a spill lands once or not at
// all. With one attempt and 5 % of the replies lost, InsertAll of
// 1 000 points onto nine partitions returns an error, yet every write
// applied, and a spill install whose reply was lost resets its target —
// allocated for that spill, holding nothing else — and keeps that
// target's leaves local. Twenty seeds, with 1 and with 4 workers, run
// on both transports under the fault seam. After each, disarmed:
// Len() is 1 000, no ID is stored twice and every query answers as the
// flat scan (landOnce.check), the live snapshot validates, and
// RestoreTree of it answers as the flat scan too. Each seed ends with
// the same error class and Len() on both transports.
func TestSpillLandsOnceUnderLostReplies(t *testing.T) {
	failed := 0 // InsertAll calls that returned an error
	for seed := int64(1); seed <= 20; seed++ {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				var ends [2]landOutcome
				for i, tp := range transports {
					t.Run(tp.name, func(t *testing.T) {
						fabric := clustertest.New(tp.new(), clustertest.Faults{})
						defer fabric.Close()
						r := rand.New(rand.NewSource(seed))
						c := &landOnce{t: t, pts: randomPoints(r, 1000, 3)}
						for range 10 {
							c.queries = append(c.queries, randomPoints(r, 1, 3)[0].Coords)
						}
						stage := fmt.Sprintf("seed %d, %d workers, %s", seed, workers, tp.name)
						cfg := Config{Dim: 3, BucketSize: 8, PartitionCapacity: 250, MaxPartitions: 9, Fabric: fabric, RetryAttempts: 1}
						tr := mustTree(t, cfg)
						fabric.Arm(clustertest.Faults{Seed: seed, DropReplyAfter: 0.05})
						err := tr.InsertAll(c.pts, workers)
						fabric.Arm(clustertest.Faults{})
						if err != nil {
							failed++
						}
						ends[i] = landOutcome{class: errClass(err), n: tr.Len(), twice: c.check(tr, nil, stage)}
						if ends[i].class == "untyped" {
							t.Errorf("%s: an untyped error: %v", stage, err)
						}
						if tr.Len() != len(c.pts) {
							t.Errorf("%s: Len = %d, want %d", stage, tr.Len(), len(c.pts))
						}
						snap := liveSnapshot(t, tr)
						if err := snap.Validate(); err != nil {
							t.Fatalf("%s: %v", stage, err)
						}
						restored, err := RestoreTree(cfg, snap)
						if err != nil {
							t.Fatalf("%s: %v", stage, err)
						}
						defer restored.Close()
						checkAgainstScan(t, restored, c.pts, c.queries, stage+", restored")
					})
				}
				if ends[0] != ends[1] {
					t.Errorf("%s ends %+v, %s %+v", transports[0].name, ends[0], transports[1].name, ends[1])
				}
			})
		}
	}
	t.Logf("%d of %d InsertAll calls returned an error", failed, 20*2*len(transports))
}

// landSteps are TestWritesLandOnceUnderLostReplies's steps, in order.
var landSteps = []string{
	"BulkLoad on an empty tree", "Rebalance", "RestoreTree",
	"InsertAll, 1 worker", "BulkLoad into the tree of 1 worker",
	"InsertAll, 4 workers", "BulkLoad into the tree of 4 workers",
}

// landOutcome is how one step of one seed ended: the error class, Len()
// and the IDs stored more than once.
type landOutcome struct {
	step, class string
	n, twice    int
}

// landOnce runs TestWritesLandOnceUnderLostReplies's steps for one seed
// on one fabric.
type landOnce struct {
	t       *testing.T
	seed    int64
	name    string // the transport's
	fabric  *clustertest.Fabric
	lost    map[string]int64
	pts     []kdtree.Point // point i has ID i
	queries [][]float64
	ends    []landOutcome
}

func (c *landOnce) run() {
	r := rand.New(rand.NewSource(c.seed))
	c.pts = randomPoints(r, 2000, 3)
	c.queries = make([][]float64, 10)
	for i := range c.queries {
		c.queries[i] = randomPoints(r, 1, 3)[0].Coords
	}
	cfg := Config{Dim: 3, BucketSize: 8, PartitionCapacity: 250, MaxPartitions: 9, Fabric: c.fabric, RetryAttempts: 40}
	first, rest := c.pts[:1000], c.pts[1000:]
	want := make(map[uint64]bool)

	a := mustTree(c.t, cfg)
	c.step(landSteps[0], want, c.pts, func() (*Tree, error) { return a, a.BulkLoad(detached, c.pts) })
	c.step(landSteps[1], want, nil, func() (*Tree, error) { return a, a.Rebalance() })
	snap := liveSnapshot(c.t, a)
	c.step(landSteps[2], want, nil, func() (*Tree, error) {
		b, err := RestoreTree(cfg, snap)
		if err == nil {
			c.t.Cleanup(func() { b.Close() })
		}
		return b, err
	})
	for i, workers := range []int{1, 4} {
		tr, want := mustTree(c.t, cfg), make(map[uint64]bool)
		if c.step(landSteps[3+2*i], want, first, func() (*Tree, error) { return tr, tr.InsertAll(first, workers) }) {
			if got := tr.PartitionCount(); got != 9 {
				c.t.Errorf("seed %d, %s: %d partitions, want 9: the root never spilled", c.seed, landSteps[3+2*i], got)
			}
		}
		c.step(landSteps[4+2*i], want, rest, func() (*Tree, error) { return tr, tr.BulkLoad(detached, rest) })
	}
}

// step runs one write under lost replies, then checks the tree it
// leaves, disarmed. want holds the IDs of every point whose write to
// the tree (or to the tree it was restored from) returned nil; written
// joins it when this write does too. It reports whether the write
// returned nil.
func (c *landOnce) step(name string, want map[uint64]bool, written []kdtree.Point, write func() (*Tree, error)) bool {
	stage := fmt.Sprintf("seed %d, %s, %s", c.seed, c.name, name)
	before := c.fabric.Counts().Lost
	c.fabric.Arm(clustertest.Faults{Seed: c.seed, DropReplyAfter: 0.05})
	tr, err := write()
	c.fabric.Arm(clustertest.Faults{})
	c.lost[name] += c.fabric.Counts().Lost - before
	out := landOutcome{step: name, class: errClass(err)}
	if out.class == "untyped" {
		c.t.Errorf("%s: an untyped error: %v", stage, err)
	}
	if err == nil {
		for _, p := range written {
			want[p.ID] = true
		}
	} else {
		c.t.Logf("%s: %v", stage, err)
	}
	if tr != nil {
		out.n, out.twice = tr.Len(), c.check(tr, want, stage)
	}
	c.ends = append(c.ends, out)
	return err == nil
}

// check holds tr to the contract and returns the number of IDs it
// stores more than once.
func (c *landOnce) check(tr *Tree, want map[uint64]bool, stage string) int {
	c.t.Helper()
	snap := liveSnapshot(c.t, tr)
	copies := make(map[uint64]int)
	for _, ps := range snap.Parts {
		for _, id := range ps.IDs {
			copies[id]++
		}
	}
	twice := 0
	var stored []kdtree.Point
	for _, p := range c.pts {
		switch n := copies[p.ID]; {
		case n > 1:
			twice++
			fallthrough
		case n == 1:
			stored = append(stored, p)
		case want[p.ID]:
			c.t.Errorf("%s: point %d was written without an error but is not stored", stage, p.ID)
		}
	}
	if twice > 0 {
		c.t.Errorf("%s: %d IDs stored twice", stage, twice)
	}
	if len(stored) < 10 { // too few for checkAgainstScan's range radius
		if tr.Len() != len(stored) {
			c.t.Errorf("%s: Len = %d, %d IDs stored", stage, tr.Len(), len(stored))
		}
		return twice
	}
	checkAgainstScan(c.t, tr, stored, c.queries, stage)
	return twice
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
