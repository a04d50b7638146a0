package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/cluster/clustertest"
	"semtree/internal/kdtree"
)

func randomPoints(r *rand.Rand, n, dim int) []kdtree.Point {
	pts := make([]kdtree.Point, n)
	for i := range pts {
		c := make([]float64, dim)
		for d := range c {
			c[d] = r.Float64() * 100
		}
		pts[i] = kdtree.Point{Coords: c, ID: uint64(i)}
	}
	return pts
}

func mustTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func sameDistances(a, b []kdtree.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

func sameIDSets(a, b []kdtree.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	ids := map[uint64]bool{}
	for _, n := range a {
		ids[n.Point.ID] = true
	}
	for _, n := range b {
		if !ids[n.Point.ID] {
			return false
		}
	}
	return true
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Dim: 0}); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := New(Config{Dim: 2, PartitionCapacity: -1}); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestInsertValidation(t *testing.T) {
	tr := mustTree(t, Config{Dim: 3})
	if err := tr.Insert(kdtree.Point{Coords: []float64{1}}); err == nil {
		t.Fatal("wrong dimensionality accepted")
	}
	if _, err := tr.KNearest(context.Background(), []float64{1}, 3); err == nil {
		t.Fatal("wrong query dimensionality accepted")
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2})
	got, err := tr.KNearest(context.Background(), []float64{0, 0}, 3)
	if err != nil || got != nil {
		t.Fatalf("empty KNN = %v, %v", got, err)
	}
	rng, err := tr.RangeSearch(context.Background(), []float64{0, 0}, 5)
	if err != nil || rng != nil {
		t.Fatalf("empty range = %v, %v", rng, err)
	}
}

// TestSinglePartitionMatchesFlatScan: the one-partition tree against
// the flat scan. (kdtree.Tree runs on the same kernel as the partition,
// so it cannot serve as the oracle here; kernel_test.go compares the
// two with each other and both with an independent scan.)
func TestSinglePartitionMatchesFlatScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randomPoints(r, 800, 4)
	tr := mustTree(t, Config{Dim: 4, BucketSize: 8})
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 800 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.PartitionCount() != 1 {
		t.Fatalf("partitions = %d, want 1", tr.PartitionCount())
	}
	for q := 0; q < 40; q++ {
		query := []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		got, err := tr.KNearest(context.Background(), query, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(pts, query, 5)
		if !sameDistances(got, want) {
			t.Fatalf("KNN mismatch:\ngot  %v\nwant %v", got, want)
		}
		d := r.Float64() * 40
		gotR, err := tr.RangeSearch(context.Background(), query, d)
		if err != nil {
			t.Fatal(err)
		}
		if wantR := bruteRange(pts, query, d); !sameIDSets(gotR, wantR) {
			t.Fatalf("range mismatch: got %d, want %d", len(gotR), len(wantR))
		}
	}
}

func TestPartitionedMatchesOracleProperty(t *testing.T) {
	// The core correctness property: for any (points, partition
	// capacity, M, bucket size), the distributed tree answers exactly
	// like the sequential KD-tree.
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 12; trial++ {
		n := 100 + r.Intn(900)
		dim := 2 + r.Intn(4)
		bucket := 2 + r.Intn(14)
		maxParts := 1 + r.Intn(10)
		capacity := 20 + r.Intn(200)
		pts := randomPoints(r, n, dim)

		tr := mustTree(t, Config{
			Dim: dim, BucketSize: bucket,
			PartitionCapacity: capacity, MaxPartitions: maxParts,
		})
		if err := tr.InsertAll(pts, 1); err != nil {
			t.Fatal(err)
		}
		brute := pts

		for q := 0; q < 12; q++ {
			query := make([]float64, dim)
			for d := range query {
				query[d] = r.Float64() * 100
			}
			k := 1 + r.Intn(10)
			got, err := tr.KNearest(context.Background(), query, k)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteKNN(brute, query, k)
			if !sameDistances(got, want) {
				t.Fatalf("trial %d (n=%d parts=%d cap=%d): KNN mismatch\ngot  %v\nwant %v",
					trial, n, tr.PartitionCount(), capacity, got, want)
			}
			d := r.Float64() * 30
			gotR, err := tr.RangeSearch(context.Background(), query, d)
			if err != nil {
				t.Fatal(err)
			}
			if wantR := bruteRange(brute, query, d); !sameIDSets(gotR, wantR) {
				t.Fatalf("trial %d: range mismatch: got %d want %d", trial, len(gotR), len(wantR))
			}
		}
	}
}

// euclidean is the oracle distance: the engine itself works on
// euclideanSq and defers the sqrt to the client boundary.
func euclidean(q, p []float64) float64 {
	return math.Sqrt(kdtree.EuclideanSq(q, p))
}

func bruteKNN(pts []kdtree.Point, q []float64, k int) []kdtree.Neighbor {
	rs := newResultSet(k, nil)
	for _, p := range pts {
		rs.Offer(kdtree.Neighbor{Point: p, Dist: euclidean(q, p.Coords)})
	}
	return rs.Items
}

func bruteRange(pts []kdtree.Point, q []float64, d float64) []kdtree.Neighbor {
	var out []kdtree.Neighbor
	for _, p := range pts {
		if dist := euclidean(q, p.Coords); dist <= d {
			out = append(out, kdtree.Neighbor{Point: p, Dist: dist})
		}
	}
	return out
}

func TestBuildPartitionSpreadsData(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randomPoints(r, 2000, 3)
	tr := mustTree(t, Config{
		Dim: 3, BucketSize: 16,
		PartitionCapacity: 250, MaxPartitions: 9,
	})
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	if got := tr.PartitionCount(); got != 9 {
		t.Fatalf("partitions = %d, want 9", got)
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 2000 {
		t.Fatalf("stats points = %d", st.Points)
	}
	// The root partition must end up routing-mostly: the bulk of the
	// data lives in the spill partitions.
	if st.PartitionPoints[0] > 500 {
		t.Fatalf("root partition still hosts %d of 2000 points", st.PartitionPoints[0])
	}
	nonEmpty := 0
	for _, p := range st.PartitionPoints[1:] {
		if p > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Fatalf("only %d data partitions hold points: %v", nonEmpty, st.PartitionPoints)
	}
}

func TestCapacityZeroNeverSpills(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tr := mustTree(t, Config{Dim: 2, BucketSize: 4, MaxPartitions: 8})
	if err := tr.InsertAll(randomPoints(r, 500, 2), 1); err != nil {
		t.Fatal(err)
	}
	if got := tr.PartitionCount(); got != 1 {
		t.Fatalf("capacity 0 spilled into %d partitions", got)
	}
}

func TestConcurrentInsertsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	pts := randomPoints(r, 3000, 3)
	tr := mustTree(t, Config{
		Dim: 3, BucketSize: 8,
		PartitionCapacity: 300, MaxPartitions: 8,
	})
	if err := tr.InsertAll(pts, 8); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 3000 {
		t.Fatalf("points across partitions = %d, want 3000 (lost or duplicated under concurrency)", st.Points)
	}
	for q := 0; q < 25; q++ {
		query := []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		got, err := tr.KNearest(context.Background(), query, 7)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKNN(pts, query, 7); !sameDistances(got, want) {
			t.Fatalf("concurrent-build KNN mismatch")
		}
	}
}

func TestConcurrentQueriesDuringInserts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := randomPoints(r, 2000, 3)
	tr := mustTree(t, Config{
		Dim: 3, BucketSize: 8,
		PartitionCapacity: 200, MaxPartitions: 6,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			q := []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
			if _, err := tr.KNearest(context.Background(), q, 3); err != nil {
				t.Errorf("query during inserts: %v", err)
				return
			}
			if _, err := tr.RangeSearch(context.Background(), q, 10); err != nil {
				t.Errorf("range during inserts: %v", err)
				return
			}
		}
	}()
	if err := tr.InsertAll(pts, 4); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestUnbalancedChainHeight(t *testing.T) {
	// Ascending inserts under the chain split policy must degenerate.
	tr := mustTree(t, Config{Dim: 2, BucketSize: 8, Unbalanced: true})
	for i := 0; i < 400; i++ {
		p := kdtree.Point{Coords: []float64{float64(i), 0}, ID: uint64(i)}
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if h := treeHeight(t, tr); h < 25 {
		t.Fatalf("chain height = %d, want ~50 (degenerate)", h)
	}
	// And still answer correctly.
	got, err := tr.KNearest(context.Background(), []float64{100.2, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Point.ID != 100 {
		t.Fatalf("chain KNN = %v", got)
	}
}

func TestBalancedHeightLogarithmic(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tr := mustTree(t, Config{Dim: 3, BucketSize: 16})
	if err := tr.InsertAll(randomPoints(r, 2048, 3), 1); err != nil {
		t.Fatal(err)
	}
	if h := treeHeight(t, tr); h > 24 {
		t.Fatalf("random-insert height = %d, too deep for 2048 points", h)
	}
}

func TestFailureInjectionWithRetries(t *testing.T) {
	fabric := clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{Seed: 99, DropBefore: 0.15})
	defer fabric.Close()
	r := rand.New(rand.NewSource(9))
	pts := randomPoints(r, 800, 3)
	tr := mustTree(t, Config{
		Dim: 3, BucketSize: 8,
		PartitionCapacity: 150, MaxPartitions: 5,
		Fabric: fabric, RetryAttempts: 25,
	})
	if err := tr.InsertAll(pts, 4); err != nil {
		t.Fatalf("InsertAll under 15%% failure injection: %v", err)
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 800 {
		t.Fatalf("points = %d, want 800 (lost under failures)", st.Points)
	}
	if fabric.Stats().Failures == 0 || fabric.Counts().Injected() == 0 {
		t.Fatal("no failures injected — test vacuous")
	}
	for q := 0; q < 10; q++ {
		query := []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		got, err := tr.KNearest(context.Background(), query, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKNN(pts, query, 5); !sameDistances(got, want) {
			t.Fatal("KNN mismatch under failure injection")
		}
	}
}

func TestOverTCPFabric(t *testing.T) {
	fabric := cluster.NewTCP()
	defer fabric.Close()
	r := rand.New(rand.NewSource(10))
	pts := randomPoints(r, 300, 3)
	tr := mustTree(t, Config{
		Dim: 3, BucketSize: 8,
		PartitionCapacity: 60, MaxPartitions: 4,
		Fabric: fabric,
	})
	if err := tr.InsertAll(pts, 4); err != nil {
		t.Fatalf("insert over TCP: %v", err)
	}
	if tr.PartitionCount() < 2 {
		t.Fatalf("expected spilling over TCP, got %d partitions", tr.PartitionCount())
	}
	for q := 0; q < 10; q++ {
		query := []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		got, err := tr.KNearest(context.Background(), query, 4)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKNN(pts, query, 4); !sameDistances(got, want) {
			t.Fatal("KNN mismatch over TCP")
		}
		gotR, err := tr.RangeSearch(context.Background(), query, 20)
		if err != nil {
			t.Fatal(err)
		}
		if wantR := bruteRange(pts, query, 20); !sameIDSets(gotR, wantR) {
			t.Fatal("range mismatch over TCP")
		}
	}
	if fabric.Stats().Bytes == 0 {
		t.Fatal("no bytes crossed the TCP fabric")
	}
}

func TestComplexityModelInsertPathLength(t *testing.T) {
	// §III-C: with a well-balanced tree the insertion path length is
	// Θ(A + log2(N/M)). Verify the measured mean path grows ~log N and
	// shrinks when M grows.
	r := rand.New(rand.NewSource(11))
	meanPath := func(n, m, capacity int) float64 {
		tr := mustTree(t, Config{
			Dim: 3, BucketSize: 16,
			PartitionCapacity: capacity, MaxPartitions: m,
		})
		defer tr.Close()
		if err := tr.InsertAll(randomPoints(r, n, 3), 1); err != nil {
			t.Fatal(err)
		}
		st, err := tr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return float64(st.NavSteps) / float64(st.Inserts)
	}
	small := meanPath(500, 1, 0)
	large := meanPath(8000, 1, 0)
	if large <= small {
		t.Fatalf("path length did not grow with N: %f vs %f", small, large)
	}
	if ratio := large / small; ratio > 4 {
		t.Fatalf("path growth %fx for 16x data — superlogarithmic", ratio)
	}
}

func TestMessageAccountingGrowsWithPartitions(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	pts := randomPoints(r, 1000, 3)
	msgs := func(m int) int64 {
		fabric := cluster.NewInProc(cluster.InProcOptions{})
		defer fabric.Close()
		capacity := 0
		if m > 1 {
			capacity = len(pts) / m
		}
		tr := mustTree(t, Config{
			Dim: 3, BucketSize: 16,
			PartitionCapacity: capacity, MaxPartitions: m, Fabric: fabric,
		})
		if err := tr.InsertAll(pts, 1); err != nil {
			t.Fatal(err)
		}
		return fabric.Stats().Messages
	}
	m1, m5 := msgs(1), msgs(5)
	if m5 <= m1 {
		t.Fatalf("cross-partition traffic did not grow: M=1 %d msgs, M=5 %d msgs", m1, m5)
	}
}
