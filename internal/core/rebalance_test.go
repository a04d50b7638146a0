package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

func TestRebalanceFixesChain(t *testing.T) {
	// Degenerate chain → Rebalance → logarithmic height, same answers.
	tr := mustTree(t, Config{Dim: 2, BucketSize: 8, Unbalanced: true})
	var pts []kdtree.Point
	for i := 0; i < 800; i++ {
		p := kdtree.Point{Coords: []float64{float64(i), float64(i % 7)}, ID: uint64(i)}
		pts = append(pts, p)
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if before := treeHeight(t, tr); before < 50 {
		t.Fatalf("chain did not degenerate: height %d", before)
	}
	if err := tr.Rebalance(); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	maxH := int(math.Ceil(math.Log2(800.0/8.0))) + 3
	if after := treeHeight(t, tr); after > maxH {
		t.Fatalf("height after rebalance %d, want <= %d", after, maxH)
	}
	if tr.Len() != 800 {
		t.Fatalf("Len after rebalance = %d", tr.Len())
	}
	r := rand.New(rand.NewSource(1))
	for q := 0; q < 25; q++ {
		query := []float64{r.Float64() * 800, r.Float64() * 7}
		got, err := tr.KNearest(context.Background(), query, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKNN(pts, query, 5); !sameDistances(got, want) {
			t.Fatalf("KNN mismatch after rebalance")
		}
	}
}

func TestRebalanceDistributesAcrossPartitions(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randomPoints(r, 3000, 3)
	// Build with capacity 0: everything lands in one partition even
	// though the budget allows 6 — Rebalance must then spread it.
	tr := mustTree(t, Config{Dim: 3, BucketSize: 16, MaxPartitions: 6})
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	if tr.PartitionCount() != 1 {
		t.Fatalf("pre-rebalance partitions = %d", tr.PartitionCount())
	}
	if err := tr.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if tr.PartitionCount() != 6 {
		t.Fatalf("post-rebalance partitions = %d, want 6", tr.PartitionCount())
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 3000 {
		t.Fatalf("points after rebalance = %d", st.Points)
	}
	if st.PartitionPoints[0] != 0 {
		t.Fatalf("root partition still holds %d points", st.PartitionPoints[0])
	}
	nonEmpty := 0
	for _, n := range st.PartitionPoints[1:] {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 5 {
		t.Fatalf("data partitions holding points: %d, want 5 (%v)", nonEmpty, st.PartitionPoints)
	}
	for q := 0; q < 20; q++ {
		query := []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		got, err := tr.KNearest(context.Background(), query, 4)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKNN(pts, query, 4); !sameDistances(got, want) {
			t.Fatal("KNN mismatch after distributed rebalance")
		}
		gotR, err := tr.RangeSearch(context.Background(), query, 20)
		if err != nil {
			t.Fatal(err)
		}
		if wantR := bruteRange(pts, query, 20); !sameIDSets(gotR, wantR) {
			t.Fatal("range mismatch after distributed rebalance")
		}
	}
}

func TestRebalanceEmptyTree(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxPartitions: 3})
	if err := tr.Rebalance(); err != nil {
		t.Fatalf("Rebalance on empty tree: %v", err)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Still usable afterwards.
	if err := tr.Insert(kdtree.Point{Coords: []float64{1, 2}, ID: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := tr.KNearest(context.Background(), []float64{0, 0}, 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("insert after empty rebalance: %v %v", got, err)
	}
}

func TestRebalanceTinyDataManyPartitions(t *testing.T) {
	// Fewer points than a single bucket with M=8: the whole tree stays
	// on the root partition.
	tr := mustTree(t, Config{Dim: 2, BucketSize: 16, MaxPartitions: 8})
	var pts []kdtree.Point
	for i := 0; i < 5; i++ {
		p := kdtree.Point{Coords: []float64{float64(i), 0}, ID: uint64(i)}
		pts = append(pts, p)
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Rebalance(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.KNearest(context.Background(), []float64{2.1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteKNN(pts, []float64{2.1, 0}, 2); !sameDistances(got, want) {
		t.Fatal("KNN mismatch after tiny rebalance")
	}
}

func TestRebalanceThenInsertAndSpill(t *testing.T) {
	// After a rebalance the tree must keep working dynamically:
	// inserts, splits, further spills.
	r := rand.New(rand.NewSource(3))
	tr := mustTree(t, Config{Dim: 3, BucketSize: 8, PartitionCapacity: 200, MaxPartitions: 4})
	pts := randomPoints(r, 600, 3)
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Rebalance(); err != nil {
		t.Fatal(err)
	}
	more := randomPoints(r, 600, 3)
	for i := range more {
		more[i].ID += 10000
	}
	if err := tr.InsertAll(more, 1); err != nil {
		t.Fatal(err)
	}
	all := append(append([]kdtree.Point(nil), pts...), more...)
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != len(all) {
		t.Fatalf("points = %d, want %d", st.Points, len(all))
	}
	for q := 0; q < 20; q++ {
		query := []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		got, err := tr.KNearest(context.Background(), query, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKNN(all, query, 5); !sameDistances(got, want) {
			t.Fatal("KNN mismatch after rebalance+insert")
		}
	}
}

func TestRebalanceOverTCP(t *testing.T) {
	fabric := cluster.NewTCP()
	defer fabric.Close()
	r := rand.New(rand.NewSource(4))
	pts := randomPoints(r, 400, 3)
	tr := mustTree(t, Config{Dim: 3, BucketSize: 8, MaxPartitions: 3, Fabric: fabric})
	if err := tr.InsertAll(pts, 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Rebalance(); err != nil {
		t.Fatalf("Rebalance over TCP: %v", err)
	}
	if tr.PartitionCount() != 3 {
		t.Fatalf("partitions = %d", tr.PartitionCount())
	}
	for q := 0; q < 10; q++ {
		query := []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		got, err := tr.KNearest(context.Background(), query, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKNN(pts, query, 3); !sameDistances(got, want) {
			t.Fatal("KNN mismatch after TCP rebalance")
		}
	}
}

// TestRebalanceRestoresBulkLayout is the counter gate of the one
// layout-maintenance operation: on a tree grown by single inserts —
// spills scattering its leaves over five partitions — Rebalance cuts
// the sequential protocol's fabric messages to at most a fifth, to
// exactly what a fresh BulkLoad of the same points costs, with
// every answer equal to the flat scan before and after and every box
// exact. Counters only; no clock is read.
func TestRebalanceRestoresBulkLayout(t *testing.T) {
	const n, dim, k = 20000, 8, 10
	r := rand.New(rand.NewSource(91))
	for _, corpus := range []struct {
		name string
		pts  []kdtree.Point
	}{
		{"clustered", clusteredPoints(r, n, dim, 6)},
		{"uniform", randomPoints(r, n, dim)},
	} {
		name, pts := corpus.name, corpus.pts
		queries := make([][]float64, 64)
		want := make([][]kdtree.Neighbor, len(queries))
		for i := range queries {
			q := append([]float64(nil), pts[r.Intn(n)].Coords...)
			for d := range q {
				q[d] += r.NormFloat64()
			}
			queries[i], want[i] = q, flatScan(pts, q, -1)[:k]
		}
		// messages sums FabricMessages over the query set, holding every
		// answer to the flat scan on the way.
		messages := func(tr *Tree, stage string) int64 {
			var sum int64
			for i, q := range queries {
				got, st, err := tr.knnResolved(context.Background(), q, k, ProtocolSequential, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameAnswer(got, want[i]); err != nil {
					t.Fatalf("%s, %s: query %d: %v", name, stage, i, err)
				}
				sum += st.FabricMessages
			}
			return sum
		}
		cfg := Config{Dim: dim, PartitionCapacity: n / 4, MaxPartitions: 5}

		grown := mustTree(t, cfg)
		if err := grown.InsertAll(pts, 1); err != nil {
			t.Fatal(err)
		}
		if grown.PartitionCount() != 5 {
			t.Fatalf("%s: inserts grew %d partitions, want 5", name, grown.PartitionCount())
		}
		before := messages(grown, "insert-grown")
		if err := grown.Rebalance(); err != nil {
			t.Fatal(err)
		}
		after := messages(grown, "rebalanced")
		checkPartitionBoxes(t, grown)

		fresh := mustTree(t, cfg)
		if err := fresh.BulkLoad(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
		bulk := messages(fresh, "bulk-loaded")

		t.Logf("%s: messages over %d queries: insert-grown %d, rebalanced %d, bulk-loaded %d", name, len(queries), before, after, bulk)
		if after*5 > before {
			t.Errorf("%s: Rebalance left %d messages of %d, want at most a fifth", name, after, before)
		}
		if after != bulk {
			t.Errorf("%s: rebalanced layout costs %d messages, a fresh BulkLoad %d: not the same layout", name, after, bulk)
		}
	}
}

// TestRebalanceRefusesDanglingLinks: Rebalance's walk checks every
// reference it follows. One data partition of a nine-partition bulk
// load is reset, as a failed load's undo resets it when the root graft
// applied but lost every reply: the trunk's links to it dangle.
// Rebalance returns an error wrapping ErrSnapshotCorrupt, not a panic,
// and changes nothing.
func TestRebalanceRefusesDanglingLinks(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(71)), 2000, 3)
	tr := mustTree(t, Config{Dim: 3, BucketSize: 8, PartitionCapacity: 250, MaxPartitions: 9})
	if err := tr.BulkLoad(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if got := tr.PartitionCount(); got != 9 {
		t.Fatalf("partitions = %d, want 9", got)
	}
	if err := tr.reset(tr.parts[3].id, false); err != nil {
		t.Fatal(err)
	}
	var before [][]byte
	for _, p := range tr.parts {
		before = append(before, partitionBytes(t, p))
	}
	n := tr.Len()
	err := tr.Rebalance()
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("Rebalance over a dangling link: %v, want ErrSnapshotCorrupt", err)
	}
	if tr.Len() != n || tr.PartitionCount() != 9 {
		t.Fatalf("after the refused Rebalance: Len %d, was %d; %d partitions", tr.Len(), n, tr.PartitionCount())
	}
	for i, p := range tr.parts {
		if !bytes.Equal(partitionBytes(t, p), before[i]) {
			t.Fatalf("the refused Rebalance changed partition %d", i)
		}
	}
}

// quiescenceBreach is the fault seam of TestFailedRebalanceWrapsBothCauses.
// Once armed, just before the next root graft it delivers a bucket and
// one more point to the root's empty leaf — a writer the caller
// promised there would not be, whose inserts split the leaf — and from
// then on it fails every bulk add with errReload, before delivery.
type quiescenceBreach struct {
	cluster.Fabric
	intruders       []kdtree.Point
	armed, breached bool
}

var errReload = errors.New("injected re-load failure")

func (f *quiescenceBreach) Call(ctx context.Context, from, to cluster.NodeID, req any) (any, error) {
	switch r := req.(type) {
	case installReq:
		if r.Entry >= 0 && f.armed && !f.breached {
			f.breached = true
			if _, err := f.Fabric.Call(ctx, from, to, bulkAddReq{Entries: entriesAt(0, f.intruders), Policy: landAppend}); err != nil {
				return nil, err
			}
		}
	case bulkAddReq:
		if f.breached {
			return nil, errReload
		}
	}
	return f.Fabric.Call(ctx, from, to, req)
}

// TestFailedRebalanceWrapsBothCauses: a root that changed under the
// install refuses the graft (ErrRequestRefused), and when the re-load
// of the gathered points fails as well, the error Rebalance returns
// matches both causes.
func TestFailedRebalanceWrapsBothCauses(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	pts := randomPoints(r, 600, 3)
	intruders := randomPoints(r, 9, 3)
	for i := range intruders {
		intruders[i].ID += uint64(len(pts)) // IDs of their own
	}
	fabric := &quiescenceBreach{Fabric: cluster.NewInProc(cluster.InProcOptions{}), intruders: intruders}
	defer fabric.Close()
	tr := mustTree(t, Config{Dim: 3, BucketSize: 8, MaxPartitions: 5, Fabric: fabric})
	if err := tr.BulkLoad(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	fabric.armed = true
	fabric.armed = true
	err := tr.Rebalance()
	if !fabric.breached {
		t.Fatal("the rebalance sent no root graft: test vacuous")
	}
	if !errors.Is(err, ErrRequestRefused) || !errors.Is(err, errReload) {
		t.Fatalf("Rebalance = %v, want it to match ErrRequestRefused and the re-load's error", err)
	}
}
