package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// ingestGolden holds, per build of TestIngestLayoutGolden, the SHA-256
// of the tree's encoded snapshot and the fabric messages, insert
// navigation steps and local inserts the build cost. A line moves only
// when an ingest change moves a layout or a message; on a mismatch the
// test prints the lines it computed.
const ingestGolden = "testdata/ingest-layout-golden.txt"

// TestIngestLayoutGolden pins every ingest path to a committed record:
// point-by-point growth spilling over five partitions (InsertAll on one
// worker) on InProc and on a TCP fabric, the totally unbalanced chain,
// a BulkLoad followed by two live BulkLoads, and a BulkLoad followed by
// point-by-point inserts. Each build's snapshot bytes are a function of
// its points and operations, and each insert and each forward is one
// message, so the record is exact: Figure 3's rank clock and the
// complexity figure's NavSteps/Inserts both read these counts. BoxWork
// is left out — it counts box growth, not messages or layout.
func TestIngestLayoutGolden(t *testing.T) {
	const n, dim = 6000, 6
	r := rand.New(rand.NewSource(83))
	pts := clusteredPoints(r, n, dim, 6)
	chain := make([]kdtree.Point, 800)
	for i := range chain {
		chain[i] = kdtree.Point{Coords: []float64{float64(i), float64(i % 7)}, ID: uint64(i)}
	}
	spread := Config{Dim: dim, PartitionCapacity: n / 4, MaxPartitions: 5}
	ctx := context.Background()
	insertAll := func(pts []kdtree.Point) func(*Tree) error {
		return func(tr *Tree) error { return tr.InsertAll(pts, 1) }
	}
	bulkLoads := func(batches ...[]kdtree.Point) func(*Tree) error {
		return func(tr *Tree) error {
			for _, b := range batches {
				if err := tr.BulkLoad(ctx, b); err != nil {
					return err
				}
			}
			return nil
		}
	}
	builds := []struct {
		name  string
		cfg   Config
		tcp   bool
		build func(*Tree) error
	}{
		{"insert-inproc", spread, false, insertAll(pts)},
		{"insert-tcp", spread, true, insertAll(pts)},
		{"chain", Config{Dim: 2, BucketSize: 8, Unbalanced: true, PartitionCapacity: 200, MaxPartitions: 3}, false, insertAll(chain)},
		{"bulk-live-bulk", spread, false, bulkLoads(pts[:n/2], pts[n/2:3*n/4], pts[3*n/4:])},
		{"bulk-insert", spread, false, func(tr *Tree) error {
			if err := bulkLoads(pts[:n/2])(tr); err != nil {
				return err
			}
			return insertAll(pts[n/2:])(tr)
		}},
	}
	var got []string
	for _, b := range builds {
		cfg := b.cfg
		if b.tcp {
			fabric := cluster.NewTCP()
			defer fabric.Close()
			cfg.Fabric = fabric
		}
		tr := mustTree(t, cfg)
		if err := b.build(tr); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if tr.PartitionCount() != cfg.MaxPartitions {
			t.Fatalf("%s: spread over %d partitions, want %d", b.name, tr.PartitionCount(), cfg.MaxPartitions)
		}
		st, err := tr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if err := EncodeSnapshot(&enc, liveSnapshot(t, tr)); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s sha256:%x messages:%d navsteps:%d inserts:%d",
			b.name, sha256.Sum256(enc.Bytes()), st.Fabric.Messages, st.NavSteps, st.Inserts))
	}
	want, err := os.ReadFile(ingestGolden)
	if err != nil {
		t.Fatalf("%v; the builds computed:\n%s", err, strings.Join(got, "\n"))
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Fatalf("ingest layouts moved; %s holds\n%s\nthe builds computed\n%s", ingestGolden, want, g)
	}
}

// TestBoxWorkCountsGrowth: BoxWork counts the boxes an insert grew,
// not the boxes it passed. On a tree spread over five partitions (a
// trunk of routing boxes and remote-box cache entries on the root),
// re-inserting a point that lies in every box on its route adds 0, and a
// point outside every box adds more than 0 — whichever path either takes.
func TestBoxWorkCountsGrowth(t *testing.T) {
	const n, dim = 2000, 4
	pts := randomPoints(rand.New(rand.NewSource(89)), n, dim)
	tr := mustTree(t, Config{Dim: dim, PartitionCapacity: n / 4, MaxPartitions: 5})
	if err := tr.BulkLoad(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	grew := func(p kdtree.Point) int64 {
		t.Helper()
		before, err := tr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
		after, err := tr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return after.BoxWork - before.BoxWork
	}
	if got := grew(kdtree.Point{Coords: pts[7].Coords, ID: n}); got != 0 {
		t.Errorf("re-inserting a point inside every box grew %d boxes", got)
	}
	outside := []float64{-1, 101, -1, 101} // randomPoints draws from [0, 100)
	if got := grew(kdtree.Point{Coords: outside, ID: n + 1}); got <= 0 {
		t.Errorf("a point outside every box grew %d boxes", got)
	}
	checkPartitionBoxes(t, tr)
}

// BenchmarkInsertBesideReader times Tree.Insert into churn's shape —
// 50 000 random 8-dimensional points bulk-loaded over five in-process
// partitions, so every insert forwards from the root's trunk — while one
// goroutine runs k-nearest queries (k = 10) in a loop, holding read
// locks for whole traversals: the warm path forwards an insert without
// waiting for the write lock. allocs/op counts the reader's allocations
// too; queries/op reports how many of its queries ran per insert.
func BenchmarkInsertBesideReader(b *testing.B) {
	const n, dim = 50_000, 8
	r := rand.New(rand.NewSource(1))
	tr, err := New(Config{Dim: dim, PartitionCapacity: n / 5, MaxPartitions: 5})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()
	if err := tr.BulkLoad(ctx, randomPoints(r, n, dim)); err != nil {
		b.Fatal(err)
	}
	queries := randomPoints(r, 256, dim)
	inserts := randomPoints(r, b.N, dim)
	for i := range inserts {
		inserts[i].ID += n
	}
	stop, done := make(chan struct{}), make(chan int)
	go func() {
		q := 0
		for ; ; q++ {
			select {
			case <-stop:
				done <- q
				return
			default:
			}
			if _, err := tr.KNearest(ctx, queries[q%len(queries)].Coords, 10); err != nil {
				b.Error(err)
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if err := tr.Insert(inserts[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	b.ReportMetric(float64(<-done)/float64(b.N), "queries/op")
}
