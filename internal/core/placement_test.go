package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// Tests for the geometry-aware placement kernel: the greedy assignment
// must spread over empty targets first and cluster after, be
// deterministic, and — on clustered workloads — produce a layout whose
// queries touch no more (and typically fewer) partitions than the
// round-robin baseline while returning byte-identical results.

// clusteredPoints generates n points in `clusters` Gaussian blobs with
// centers uniform in [0, 100)^dim — the workload where placement
// matters: geometrically close buckets exist to be co-located.
func clusteredPoints(r *rand.Rand, n, dim, clusters int) []kdtree.Point {
	centers := make([][]float64, clusters)
	for i := range centers {
		c := make([]float64, dim)
		for d := range c {
			c[d] = r.Float64() * 100
		}
		centers[i] = c
	}
	pts := make([]kdtree.Point, n)
	for i := range pts {
		center := centers[i%clusters]
		c := make([]float64, dim)
		for d := range c {
			c[d] = center[d] + r.NormFloat64()*2
		}
		pts[i] = kdtree.Point{Coords: c, ID: uint64(i)}
	}
	return pts
}

func TestPlaceSubtreesSpreadsThenClusters(t *testing.T) {
	// Two tight pairs of boxes far apart; two empty targets. The kernel
	// must anchor one pair member per target (spread), then join each
	// remaining box with its geometric partner (cluster).
	mkBox := func(at float64) placeBox {
		return placeBox{lo: []float64{at, at}, hi: []float64{at + 1, at + 1}, points: 8}
	}
	subs := []placeBox{mkBox(0), mkBox(90), mkBox(2), mkBox(92)}
	assign := placeSubtrees(subs, 2)
	if assign[0] != assign[2] || assign[1] != assign[3] {
		t.Fatalf("close boxes split across targets: %v", assign)
	}
	if assign[0] == assign[1] {
		t.Fatalf("far boxes piled on one target: %v", assign)
	}
}

func TestPlaceSubtreesDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var subs []placeBox
	for i := 0; i < 20; i++ {
		lo := []float64{r.Float64() * 100, r.Float64() * 100}
		subs = append(subs, placeBox{
			lo: lo, hi: []float64{lo[0] + r.Float64()*5, lo[1] + r.Float64()*5},
			points: 1 + r.Intn(16),
		})
	}
	first := placeSubtrees(subs, 3)
	for trial := 0; trial < 5; trial++ {
		if got := placeSubtrees(subs, 3); len(got) != len(first) {
			t.Fatal("assignment length changed")
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("trial %d: assignment differs at %d: %d != %d", trial, i, got[i], first[i])
				}
			}
		}
	}
}

// roundRobin is the arena-order scatter that ignores geometry: subtree
// i goes to target i mod targets. It is the baseline
// TestPlacementIdenticalResults and BenchmarkKNNPlacement measure the
// kernel against, and the layout with the most cross-partition edges
// for the protocol tests to cross.
func roundRobin(subs []placeBox, targets int) []int {
	assign := make([]int, len(subs))
	for i := range assign {
		assign[i] = i % targets
	}
	return assign
}

// mustTreePlaced is mustTree with place assigning the subtrees of
// every spill and install.
func mustTreePlaced(t *testing.T, cfg Config, place func([]placeBox, int) []int) *Tree {
	t.Helper()
	tr := mustTree(t, cfg)
	tr.place = place
	return tr
}

// placementPair builds two trees over the same clustered points and
// topology, one placed by the kernel and one round-robin.
func placementPair(t *testing.T, pts []kdtree.Point, dim int) (placed, rr *Tree) {
	t.Helper()
	mk := func(place func([]placeBox, int) []int) *Tree {
		tr := mustTreePlaced(t, Config{
			Dim: dim, BucketSize: 8,
			PartitionCapacity: 128, MaxPartitions: 5,
		}, place)
		if err := tr.InsertAll(pts, 1); err != nil {
			t.Fatal(err)
		}
		if got := tr.PartitionCount(); got < 3 {
			t.Fatalf("partitions = %d, want >= 3 for a meaningful layout", got)
		}
		return tr
	}
	return mk(placeSubtrees), mk(roundRobin)
}

// TestPlacementIdenticalResults: the placement policy must not change
// any query result — same points, same order, same distance bits —
// while the placed layout's fan-out queries touch strictly fewer
// partitions and send strictly fewer fabric messages in total than
// round-robin's, at dimensionality 8 and 16 (where the boxes have room
// to separate). Both sums are counters, deterministic per seed.
func TestPlacementIdenticalResults(t *testing.T) {
	for _, dim := range []int{8, 16} {
		r := rand.New(rand.NewSource(41))
		pts := clusteredPoints(r, 3000, dim, 6)
		placed, rr := placementPair(t, pts, dim)
		var placedAgg, rrAgg ExecStats
		for trial := 0; trial < 40; trial++ {
			q := clusteredPoints(r, 1, dim, 6)[0].Coords
			for _, k := range []int{1, 3, 10} {
				want, wantSt, err := rr.knnResolved(context.Background(), q, k, ProtocolFanOut, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, gotSt, err := placed.knnResolved(context.Background(), q, k, ProtocolFanOut, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameNeighbors(t, got, want, "dim %d trial %d k=%d", dim, trial, k)
				placedAgg.Partitions += gotSt.Partitions
				placedAgg.FabricMessages += gotSt.FabricMessages
				rrAgg.Partitions += wantSt.Partitions
				rrAgg.FabricMessages += wantSt.FabricMessages
			}
		}
		if placedAgg.Partitions >= rrAgg.Partitions {
			t.Fatalf("dim %d: placed layout did not touch fewer partitions than round-robin: %d >= %d",
				dim, placedAgg.Partitions, rrAgg.Partitions)
		}
		if placedAgg.FabricMessages >= rrAgg.FabricMessages {
			t.Fatalf("dim %d: placed layout did not send fewer messages than round-robin: %d >= %d",
				dim, placedAgg.FabricMessages, rrAgg.FabricMessages)
		}
		t.Logf("dim %d: partitions %d placed vs %d round-robin, messages %d vs %d", dim,
			placedAgg.Partitions, rrAgg.Partitions, placedAgg.FabricMessages, rrAgg.FabricMessages)
		checkPartitionBoxes(t, placed)
		checkPartitionBoxes(t, rr)
	}
}

// TestRebalancePlacementExact: a rebalance under the box policy must
// keep boxes exact and results correct (the frontier install goes
// through the same kernel).
func TestRebalancePlacementExact(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	pts := clusteredPoints(r, 2000, 6, 4)
	tr := mustTree(t, Config{
		Dim: 6, BucketSize: 8,
		PartitionCapacity: 100, MaxPartitions: 5,
	})
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Rebalance(); err != nil {
		t.Fatal(err)
	}
	checkPartitionBoxes(t, tr)
	for trial := 0; trial < 20; trial++ {
		q := clusteredPoints(r, 1, 6, 4)[0].Coords
		got, err := tr.KNearest(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKNN(pts, q, 5); !sameIDSets(got, want) {
			t.Fatalf("trial %d: rebalanced tree disagrees with oracle", trial)
		}
	}
}

// TestLayoutIsFunctionOfData: where data lives, and the bytes a
// snapshot of it encodes to, depend on the points and the operation
// sequence only — not on what the fabric's clock measured while the
// tree served queries, and not on a map's iteration order. Eight
// independently built trees go through BulkLoad, 200 k-NN queries (the
// samples the cost model learns hop prices from) and Rebalance: their
// encoded snapshots are byte-equal and every partition hosts exactly
// the points a fresh BulkLoad puts there. Eight more take two BulkLoads
// into a live tree (grafts and forwards in handleBulkAdd): byte-equal
// again. Eight grown point by point (InsertAll on one worker: spills,
// and every forward loop an insert can reach) spread over all five
// partitions and are byte-equal too. And a BulkLoad is a function of
// the point set: eight shuffles of the input encode to the bytes of the
// unshuffled one.
func TestLayoutIsFunctionOfData(t *testing.T) {
	const n, dim, k, builds = 20000, 8, 10, 8
	r := rand.New(rand.NewSource(17))
	pts := clusteredPoints(r, n, dim, 6)
	queries := clusteredPoints(r, 200, dim, 6)
	cfg := Config{Dim: dim, PartitionCapacity: n / 4, MaxPartitions: 5}

	encoded := func(tr *Tree) (*TreeSnapshot, []byte) {
		snap := liveSnapshot(t, tr)
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		return snap, buf.Bytes()
	}
	// hosted lists each partition's point IDs, ascending.
	hosted := func(snap *TreeSnapshot) [][]uint64 {
		out := make([][]uint64, len(snap.Parts))
		for pi, ps := range snap.Parts {
			out[pi] = slices.Clone(ps.IDs)
			slices.Sort(out[pi])
		}
		return out
	}
	bulkLoad := func(tr *Tree, batch []kdtree.Point) {
		if err := tr.BulkLoad(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}

	fresh := mustTree(t, cfg)
	bulkLoad(fresh, pts)
	freshSnap, _ := encoded(fresh)
	want := hosted(freshSnap)

	var first []byte
	for b := 0; b < builds; b++ {
		tr := mustTree(t, cfg)
		bulkLoad(tr, pts)
		for _, q := range queries {
			if _, _, err := tr.knnResolved(context.Background(), q.Coords, k, ProtocolSequential, false, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Rebalance(); err != nil {
			t.Fatal(err)
		}
		snap, enc := encoded(tr)
		if got := hosted(snap); !slices.EqualFunc(got, want, slices.Equal[[]uint64]) {
			t.Fatalf("build %d: rebalanced partitions do not host the points a fresh BulkLoad places on them", b)
		}
		if b == 0 {
			first = enc
		} else if !bytes.Equal(enc, first) {
			t.Fatalf("build %d: rebalanced snapshot bytes differ from build 0's", b)
		}
	}

	for b := 0; b < builds; b++ {
		tr := mustTree(t, cfg)
		bulkLoad(tr, pts[:n/2])
		bulkLoad(tr, pts[n/2:3*n/4])
		bulkLoad(tr, pts[3*n/4:])
		_, enc := encoded(tr)
		if b == 0 {
			first = enc
		} else if !bytes.Equal(enc, first) {
			t.Fatalf("build %d: snapshot bytes after two live BulkLoads differ from build 0's", b)
		}
	}

	for b := 0; b < builds; b++ {
		tr := mustTree(t, cfg)
		if err := tr.InsertAll(pts, 1); err != nil {
			t.Fatal(err)
		}
		if got := tr.PartitionCount(); got != cfg.MaxPartitions {
			t.Fatalf("build %d: inserts spread over %d partitions, want %d", b, got, cfg.MaxPartitions)
		}
		if _, enc := encoded(tr); b == 0 {
			first = enc
		} else if !bytes.Equal(enc, first) {
			t.Fatalf("build %d: snapshot bytes of an insert-grown tree differ from build 0's", b)
		}
	}

	// A quarter of the set again under new IDs, so coordinates tie
	// across points: tie handling must not let input order through.
	tied := slices.Clone(pts)
	for i, p := range pts[:n/4] {
		tied = append(tied, kdtree.Point{Coords: p.Coords, ID: uint64(n + i)})
	}
	for b := 0; b < builds; b++ {
		tr := mustTree(t, cfg)
		bulkLoad(tr, tied)
		if _, enc := encoded(tr); b == 0 {
			first = enc
		} else if !bytes.Equal(enc, first) {
			t.Fatalf("shuffle %d: snapshot bytes of a BulkLoad depend on the order of its input", b)
		}
		r.Shuffle(len(tied), func(i, j int) { tied[i], tied[j] = tied[j], tied[i] })
	}
}

// TestConcurrentInstallIsSequential: the balanced installer installs
// the partitions concurrently, yet leaves the layout a one-by-one
// install in frontier order leaves. Five data partitions take an
// eight-subtree frontier, so some receive two fragments; on InProc and
// on TCP, at GOMAXPROCS 1, 2 and 8, a BulkLoad into an empty tree
// encodes to the bytes of installSequential's build over the same
// points on the same fabric kind.
func TestConcurrentInstallIsSequential(t *testing.T) {
	const n, dim = 6000, 4
	pts := clusteredPoints(rand.New(rand.NewSource(41)), n, dim, 5)
	cfg := Config{Dim: dim, PartitionCapacity: n / 5, MaxPartitions: 6}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tcp := range []bool{false, true} {
		build := func(load func(*Tree)) []byte {
			c := cfg
			if tcp {
				fabric := cluster.NewTCP()
				defer fabric.Close()
				c.Fabric = fabric
			}
			tr := mustTree(t, c)
			load(tr)
			var enc bytes.Buffer
			if err := EncodeSnapshot(&enc, liveSnapshot(t, tr)); err != nil {
				t.Fatal(err)
			}
			return enc.Bytes()
		}
		want := build(func(tr *Tree) { installSequential(t, tr, pts) })
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := build(func(tr *Tree) {
				if err := tr.BulkLoad(context.Background(), pts); err != nil {
					t.Fatal(err)
				}
			})
			if !bytes.Equal(got, want) {
				t.Fatalf("tcp=%v, GOMAXPROCS %d: snapshot bytes differ from the one-by-one install's", tcp, procs)
			}
		}
	}
}

// installSequential is installBalanced's path on an empty tree with
// the frontier installed one subtree at a time, in frontier order, and
// it fails the test unless some partition receives two subtrees.
func installSequential(t *testing.T, tr *Tree, pts []kdtree.Point) {
	t.Helper()
	seq, err := kdtree.BulkLoad(pts, tr.cfg.Dim, tr.cfg.BucketSize)
	if err != nil {
		t.Fatal(err)
	}
	a := &seq.Arena
	targets := tr.allocPartitions(tr.cfg.MaxPartitions)
	frontier := cutFrontier(a, len(targets))
	subs := make([]placeBox, len(frontier))
	for i, idx := range frontier {
		lo, hi := a.Box(idx)
		subs[i] = placeBox{lo: lo, hi: hi, points: a.Count(idx)}
	}
	assign := tr.assignTargets(subs, targets)
	if len(slices.Compact(slices.Sorted(slices.Values(assign)))) == len(assign) {
		t.Fatalf("%d subtrees on %d partitions, each on its own", len(assign), len(targets))
	}
	cut := make(map[int32]kdtree.Ref, len(frontier))
	for i, idx := range frontier {
		resp, err := tr.call(cluster.ClientID, assign[i], installReq{Seq: tr.installs.Add(1), Entry: -1, Frag: a.Extract(idx, nil)})
		if err != nil {
			t.Fatal(err)
		}
		cut[idx] = refTo(assign[i], resp.(installResp).Node)
	}
	resp, err := tr.call(cluster.ClientID, tr.rootPartition().id, installReq{Seq: tr.installs.Add(1), Entry: 0, Frag: a.Extract(0, cut)})
	if err != nil || !resp.(installResp).OK {
		t.Fatalf("trunk graft: %v, %v", resp, err)
	}
}
