package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// sameNeighbors asserts byte-identical ranked results: same length,
// same point IDs, bit-equal distances, in the same order.
func sameNeighbors(t *testing.T, got, want []kdtree.Neighbor, format string, args ...any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf(format+": %d results, want %d", append(args, len(got), len(want))...)
	}
	for i := range got {
		if got[i].Point.ID != want[i].Point.ID || got[i].Dist != want[i].Dist {
			t.Fatalf(format+": rank %d = (%d, %v), want (%d, %v)",
				append(args, i, got[i].Point.ID, got[i].Dist, want[i].Point.ID, want[i].Dist)...)
		}
	}
}

// TestBulkLoadMatchesIncremental is the metamorphic oracle for the
// write path: a tree bulk-loaded from scratch and a tree built by
// one-at-a-time inserts over the same points must answer every k-NN
// and range query byte-identically — across both k-NN protocols and
// both placement policies — the bulk-loaded tree's region metadata
// must be exact, and its build must cost strictly fewer fabric
// messages than the incremental one.
func TestBulkLoadMatchesIncremental(t *testing.T) {
	for _, pol := range []struct {
		name  string
		place func([]placeBox, int) []int
	}{{"box", placeSubtrees}, {"roundrobin", roundRobin}} {
		t.Run(pol.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(67))
			const dim = 5
			pts := clusteredPoints(r, 2000, dim, 4)
			cfg := Config{
				Dim: dim, BucketSize: 8,
				PartitionCapacity: 150, MaxPartitions: 6,
			}
			bulk := mustTreePlaced(t, cfg, pol.place)
			if err := bulk.BulkLoad(context.Background(), pts); err != nil {
				t.Fatal(err)
			}
			incr := mustTreePlaced(t, cfg, pol.place)
			if err := incr.InsertAll(pts, 1); err != nil {
				t.Fatal(err)
			}
			// The bulk loader installs whole subtrees; one-at-a-time
			// inserts pay a message per forwarded point. Read before
			// anything else (Len, the box check, queries) adds traffic
			// to either fabric.
			bulkSt, err := bulk.Stats()
			if err != nil {
				t.Fatal(err)
			}
			incrSt, err := incr.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if bulkSt.Fabric.Messages >= incrSt.Fabric.Messages {
				t.Fatalf("bulk build sent %d fabric messages, not fewer than incremental's %d",
					bulkSt.Fabric.Messages, incrSt.Fabric.Messages)
			}
			t.Logf("build messages: bulk %d, incremental %d", bulkSt.Fabric.Messages, incrSt.Fabric.Messages)
			if bulk.Len() != len(pts) || incr.Len() != len(pts) {
				t.Fatalf("sizes: bulk %d, incremental %d, want %d", bulk.Len(), incr.Len(), len(pts))
			}
			checkPartitionBoxes(t, bulk)
			if bulk.PartitionCount() < 2 {
				t.Fatalf("bulk load did not distribute: %d partitions", bulk.PartitionCount())
			}

			for _, proto := range []Protocol{ProtocolSequential, ProtocolFanOut} {
				bs := bulk.NewScheduler(SchedulerConfig{Protocol: proto})
				is := incr.NewScheduler(SchedulerConfig{Protocol: proto})
				for trial := 0; trial < 25; trial++ {
					q := clusteredPoints(r, 1, dim, 4)[0].Coords
					a, _, err := bs.KNearest(context.Background(), q, 7)
					if err != nil {
						t.Fatal(err)
					}
					b, _, err := is.KNearest(context.Background(), q, 7)
					if err != nil {
						t.Fatal(err)
					}
					sameNeighbors(t, a, b, "%v knn trial %d", proto, trial)
					if want := bruteKNN(pts, q, 7); !sameIDSets(a, want) {
						t.Fatalf("%v trial %d: bulk tree disagrees with brute force", proto, trial)
					}
				}
			}
			for trial := 0; trial < 15; trial++ {
				q := clusteredPoints(r, 1, dim, 4)[0].Coords
				a, err := bulk.RangeSearch(context.Background(), q, 8)
				if err != nil {
					t.Fatal(err)
				}
				b, err := incr.RangeSearch(context.Background(), q, 8)
				if err != nil {
					t.Fatal(err)
				}
				sameNeighbors(t, a, b, "range trial %d", trial)
			}
		})
	}
}

// TestBulkLoadIntoLiveTree grafts a bulk batch into a tree that
// already holds data: the merged tree must agree byte-identically with
// the fully incremental build and keep exact boxes, for both placement
// policies.
func TestBulkLoadIntoLiveTree(t *testing.T) {
	for _, pol := range []struct {
		name  string
		place func([]placeBox, int) []int
	}{{"box", placeSubtrees}, {"roundrobin", roundRobin}} {
		t.Run(pol.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(71))
			const dim = 4
			base := clusteredPoints(r, 900, dim, 3)
			batch := clusteredPoints(r, 1100, dim, 3)
			for i := range batch {
				batch[i].ID = uint64(len(base) + i)
			}
			cfg := Config{
				Dim: dim, BucketSize: 8,
				PartitionCapacity: 120, MaxPartitions: 5,
			}
			live := mustTreePlaced(t, cfg, pol.place)
			if err := live.InsertAll(base, 1); err != nil {
				t.Fatal(err)
			}
			if err := live.BulkLoad(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
			incr := mustTreePlaced(t, cfg, pol.place)
			all := append(append([]kdtree.Point(nil), base...), batch...)
			if err := incr.InsertAll(all, 1); err != nil {
				t.Fatal(err)
			}
			if live.Len() != len(all) {
				t.Fatalf("merged size %d, want %d", live.Len(), len(all))
			}
			st, err := live.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Points != len(all) {
				t.Fatalf("partition points %d, want %d", st.Points, len(all))
			}
			checkPartitionBoxes(t, live)

			for trial := 0; trial < 25; trial++ {
				q := clusteredPoints(r, 1, dim, 3)[0].Coords
				a, err := live.KNearest(context.Background(), q, 6)
				if err != nil {
					t.Fatal(err)
				}
				if want := bruteKNN(all, q, 6); !sameIDSets(a, want) {
					t.Fatalf("trial %d: merged tree disagrees with brute force", trial)
				}
				b, err := incr.KNearest(context.Background(), q, 6)
				if err != nil {
					t.Fatal(err)
				}
				if !sameDistances(a, b) {
					t.Fatalf("trial %d: merged vs incremental distances differ", trial)
				}
			}
		})
	}
}

// TestBulkLoadRepeatedBatches drives the tree through many successive
// bulk loads — first building from empty, then growing — asserting box
// exactness after every single load (the ISSUE's CheckBoxes-after-
// every-bulk-load clause) and oracle agreement at the end.
func TestBulkLoadRepeatedBatches(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	const dim = 4
	tr := mustTree(t, Config{
		Dim: dim, BucketSize: 8,
		PartitionCapacity: 100, MaxPartitions: 6,
	})
	var all []kdtree.Point
	for round := 0; round < 6; round++ {
		batch := clusteredPoints(r, 300, dim, 3)
		for i := range batch {
			batch[i].ID = uint64(len(all) + i)
		}
		if err := tr.BulkLoad(context.Background(), batch); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		all = append(all, batch...)
		if tr.Len() != len(all) {
			t.Fatalf("round %d: size %d, want %d", round, tr.Len(), len(all))
		}
		checkPartitionBoxes(t, tr)
	}
	for trial := 0; trial < 20; trial++ {
		q := clusteredPoints(r, 1, dim, 3)[0].Coords
		got, err := tr.KNearest(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKNN(all, q, 5); !sameIDSets(got, want) {
			t.Fatalf("trial %d: disagrees with brute force", trial)
		}
	}
}

// TestArenaBlocksExact: a partition's blocks hold its points and no
// more. After a bulk load — the whole tree adopted by the root
// partition, or frontier subtrees shipped in process and over TCP —
// every partition's coordinate block and ID column have cap == len: a
// fragment's blocks are moved in, not appended. After spills have moved
// leaves away, no point outlives its leaf in the blocks it left.
func TestArenaBlocksExact(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	pts := clusteredPoints(r, 6000, 4, 5)
	blocks := func(t *testing.T, tr *Tree, exact bool) {
		t.Helper()
		for _, p := range tr.parts {
			p.mu.RLock()
			if len(p.IDs) != p.points || len(p.Coords) != p.Dim*p.points {
				t.Errorf("partition %d: %d points in its blocks, %d in its leaves", p.id, len(p.IDs), p.points)
			}
			if exact && (cap(p.Coords) != len(p.Coords) || cap(p.IDs) != len(p.IDs)) {
				t.Errorf("partition %d: blocks of cap %d and %d for len %d and %d",
					p.id, cap(p.Coords), cap(p.IDs), len(p.Coords), len(p.IDs))
			}
			p.mu.RUnlock()
		}
	}
	for _, tcp := range []bool{false, true} {
		for _, m := range []int{1, 3, 9} {
			t.Run(fmt.Sprintf("tcp=%v/%d", tcp, m), func(t *testing.T) {
				cfg := Config{Dim: 4, BucketSize: 8, MaxPartitions: m}
				if m > 1 {
					cfg.PartitionCapacity = len(pts) / (m - 1)
				}
				if tcp {
					fabric := cluster.NewTCP()
					defer fabric.Close()
					cfg.Fabric = fabric
				}
				tr := mustTree(t, cfg)
				if err := tr.BulkLoad(context.Background(), pts); err != nil {
					t.Fatal(err)
				}
				if tr.PartitionCount() != m {
					t.Fatalf("%d partitions, want %d", tr.PartitionCount(), m)
				}
				blocks(t, tr, true)
			})
		}
	}
	tr := mustTree(t, Config{Dim: 4, BucketSize: 8, PartitionCapacity: 500, MaxPartitions: 6})
	if err := tr.InsertAll(pts[:3000], 1); err != nil {
		t.Fatal(err)
	}
	if tr.PartitionCount() != 6 {
		t.Fatalf("inserts spilled into %d partitions, want 6", tr.PartitionCount())
	}
	blocks(t, tr, false)
}

// TestBulkLoadRejectsWrongDims: dimension mismatches fail before any
// mutation; the empty batch is a no-op.
func TestBulkLoadRejectsWrongDims(t *testing.T) {
	tr := mustTree(t, Config{Dim: 3, BucketSize: 4})
	if err := tr.BulkLoad(context.Background(), nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	bad := []kdtree.Point{{Coords: []float64{1, 2}, ID: 0}}
	if err := tr.BulkLoad(context.Background(), bad); err == nil {
		t.Fatal("2-dim point accepted by a 3-dim tree")
	}
	if err := tr.BulkLoadRows(context.Background(), []float64{1, 2, 3, 4}, []uint64{0, 1}); err == nil {
		t.Fatal("4 coordinates for two 3-dim points accepted")
	}
	if tr.Len() != 0 {
		t.Fatalf("failed bulk load mutated the tree: %d points", tr.Len())
	}
}

// TestBulkLoadRowsMatchesBulkLoad: the rows entry builds what BulkLoad
// builds from the same points — snapshot bytes equal, on an empty tree
// spread over five partitions and again after a live merge — and a
// live merge only reads the rows it is handed.
func TestBulkLoadRowsMatchesBulkLoad(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(9))
	first, second := clusteredPoints(r, 6000, 4, 5), randomPoints(r, 3000, 4)
	for i := range second {
		second[i].ID += uint64(len(first)) // a point ID is stored at most once
	}
	encode := func(tr *Tree) []byte {
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, liveSnapshot(t, tr)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cfg := Config{Dim: 4, PartitionCapacity: 1500, MaxPartitions: 5}
	want, got := mustTree(t, cfg), mustTree(t, cfg)
	for step, batch := range [][]kdtree.Point{first, second} {
		if err := want.BulkLoad(ctx, batch); err != nil {
			t.Fatal(err)
		}
		coords, ids, err := kdtree.Gather(batch, cfg.Dim)
		if err != nil {
			t.Fatal(err)
		}
		held := slices.Clone(coords)
		if err := got.BulkLoadRows(ctx, coords, ids); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(got), encode(want)) {
			t.Fatalf("step %d: snapshot bytes differ from BulkLoad's", step)
		}
		if step == 1 && !slices.Equal(coords, held) {
			t.Fatal("a live merge wrote the rows it was handed")
		}
	}
}

// TestBulkLoadRejectsNaN: a batch holding NaN coordinates fails on the
// client, before any build — at 20 000 points the build would run two
// halves on goroutines no recover reaches — on an empty tree and on a
// live one, and so does a single NaN insert. Nothing is indexed.
func TestBulkLoadRejectsNaN(t *testing.T) {
	ctx := context.Background()
	pts := randomPoints(rand.New(rand.NewSource(7)), 20000, 3)
	for i := 0; i < len(pts); i += 7 {
		pts[i].Coords[i%3] = math.NaN()
	}
	tr := mustTree(t, Config{Dim: 3, BucketSize: 16, PartitionCapacity: 4000, MaxPartitions: 5})
	if err := tr.BulkLoad(ctx, pts); err == nil {
		t.Fatal("empty tree: BulkLoad of NaN points succeeded")
	}
	coords, ids, err := kdtree.Gather(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoadRows(ctx, coords, ids); err == nil {
		t.Fatal("empty tree: BulkLoadRows of NaN points succeeded")
	}
	if tr.Len() != 0 {
		t.Fatalf("empty tree: a failed bulk load left %d points", tr.Len())
	}
	if err := tr.Insert(pts[0]); err == nil {
		t.Fatal("Insert of a NaN point succeeded")
	}
	live := randomPoints(rand.New(rand.NewSource(8)), 100, 3)
	if err := tr.BulkLoad(ctx, live); err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(ctx, pts); err == nil {
		t.Fatal("live tree: BulkLoad of NaN points succeeded")
	}
	if tr.Len() != len(live) {
		t.Fatalf("live tree: %d points after a failed bulk load, want %d", tr.Len(), len(live))
	}
	checkPartitionBoxes(t, tr)
}

// TestRejectsInfiniteCoordinates: an infinite coordinate is refused as a
// NaN one is — by Insert and BulkLoad on the client, and by a partition
// sent one — since SplitLeaf's midpoint of an infinite range is NaN, a
// split value that orders no point. Nothing is indexed.
func TestRejectsInfiniteCoordinates(t *testing.T) {
	ctx := context.Background()
	tr := mustTree(t, Config{Dim: 1, BucketSize: 4})
	for _, v := range []float64{math.Inf(1), math.Inf(-1)} {
		pt := kdtree.Point{Coords: []float64{v}, ID: 1}
		if err := tr.Insert(pt); err == nil {
			t.Errorf("Insert of a point at %v succeeded", v)
		}
		if err := tr.BulkLoad(ctx, []kdtree.Point{{Coords: []float64{0}}, pt}); err == nil {
			t.Errorf("BulkLoad of a point at %v succeeded", v)
		}
		root := tr.rootPartition()
		if _, err := root.handle(ctx, cluster.ClientID, bulkAddReq{Entries: entriesAt(0, []kdtree.Point{pt})}); !errors.Is(err, ErrRequestRefused) {
			t.Errorf("a batch of a point at %v: %v, want a refusal", v, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("%d points indexed, want none", tr.Len())
	}
}

// TestBulkLoadChurnConcurrent is the churn invariant test: bulk loads,
// single inserts and k-NN queries all race on one live fabric. After
// quiescence the tree must hold exactly the union of everything
// ingested, with exact boxes, oracle-identical answers, and no leaked
// goroutines.
func TestBulkLoadChurnConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	const dim, clusters = 5, 4
	seed := clusteredPoints(r, 600, dim, clusters)
	extra := clusteredPoints(r, 400, dim, clusters)
	for i := range extra {
		extra[i].ID = uint64(len(seed) + i)
	}
	// Four bulk batches with disjoint ID ranges after the singles.
	batches := make([][]kdtree.Point, 4)
	next := len(seed) + len(extra)
	for b := range batches {
		batches[b] = clusteredPoints(r, 250, dim, clusters)
		for i := range batches[b] {
			batches[b][i].ID = uint64(next)
			next++
		}
	}

	// Round-robin spills scatter the leaves: the most cross-partition
	// edges to race over.
	tr := mustTreePlaced(t, Config{
		Dim: dim, BucketSize: 8,
		PartitionCapacity: 90, MaxPartitions: 6,
	}, roundRobin)
	if err := tr.InsertAll(seed, 1); err != nil {
		t.Fatal(err)
	}
	// Baseline after the fabric and partitions exist: the churn itself
	// must not leak goroutines (the fabric's own close in Cleanup).
	base := runtime.NumGoroutine() + 4

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	// Bulk loader: successive batches graft into the live tree.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			if err := tr.BulkLoad(context.Background(), b); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Inserters: two workers splitting the extra points.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(extra); i += 2 {
				if err := tr.Insert(extra[i]); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	// Queriers: results must stay well-formed mid-churn (the exact
	// oracle check happens after quiescence).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qr := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				q := clusteredPoints(qr, 1, dim, clusters)[0].Coords
				ns, err := tr.KNearest(context.Background(), q, 5)
				if err != nil {
					errc <- err
					return
				}
				for j := 1; j < len(ns); j++ {
					if ns[j].Dist < ns[j-1].Dist {
						errc <- errors.New("core: k-NN result out of order during churn")
						return
					}
				}
			}
		}(int64(83 + w))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	checkPartitionBoxes(t, tr)
	all := append(append([]kdtree.Point(nil), seed...), extra...)
	for _, b := range batches {
		all = append(all, b...)
	}
	stats, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != len(all) {
		t.Fatalf("points after churn = %d, want %d", stats.Points, len(all))
	}
	if stats.BoxWork <= 0 {
		t.Fatalf("box-maintenance counter never moved: %d", stats.BoxWork)
	}
	for trial := 0; trial < 15; trial++ {
		q := clusteredPoints(r, 1, dim, clusters)[0].Coords
		got, err := tr.KNearest(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKNN(all, q, 5); !sameIDSets(got, want) {
			t.Fatalf("trial %d: churned tree disagrees with brute force", trial)
		}
	}
	waitGoroutines(t, base)
}

// TestInstallAppliesOncePerSeq: an install re-sent under the same Seq,
// as a retry after a lost reply is, gets the reply the first one got
// and changes nothing — whether it appended a subtree (Entry -1) or
// grafted over the entry leaf (Entry 0). A fresh Seq applies again.
func TestInstallAppliesOncePerSeq(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(73)), 40, 2)
	frag := func() kdtree.Arena { // a fresh copy for every send: an install adopts its fragment
		seq, err := kdtree.BulkLoad(pts, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		return seq.Arena
	}
	for _, entry := range []int32{-1, 0} {
		tr := mustTree(t, Config{Dim: 2, BucketSize: 4})
		p := tr.rootPartition()
		req := installReq{Seq: tr.installs.Add(1), Entry: entry, Frag: frag()}
		first, err := p.handleInstall(req)
		if err != nil || !first.(installResp).OK {
			t.Fatalf("entry %d: first install: %v, %v", entry, first, err)
		}
		before := partitionBytes(t, p)
		req.Frag = frag()
		again, err := p.handleInstall(req)
		if err != nil || again != first {
			t.Fatalf("entry %d: the same Seq again answered %v, %v; the first got %v", entry, again, err, first)
		}
		if !bytes.Equal(partitionBytes(t, p), before) || p.points != len(pts) {
			t.Fatalf("entry %d: the same Seq again changed the partition (%d points)", entry, p.points)
		}
		req.Seq, req.Frag = tr.installs.Add(1), frag()
		fresh, err := p.handleInstall(req)
		if err != nil {
			t.Fatalf("entry %d: a fresh Seq: %v", entry, err)
		}
		// An append lands a second subtree; a graft over the root, now a
		// routing node, is refused.
		if want := entry < 0; fresh.(installResp).OK != want || (want && fresh == first) {
			t.Fatalf("entry %d: a fresh Seq answered %v after %v", entry, fresh, first)
		}
	}
}
