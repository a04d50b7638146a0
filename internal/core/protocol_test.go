package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/column"
	"semtree/internal/kdtree"
)

// protocolSamples is one populated value of every type the partition
// protocol puts on a fabric — bulkAddReq once per landing policy.
// TestProtocolTable holds it equal, as a set of kinds, to the kind table
// in messages.go.
func protocolSamples() []any {
	pt := kdtree.Point{Coords: []float64{1.5, -2}, ID: 7}
	entry := batchEntry{Node: 3, Point: pt}
	inf := math.Inf(1)
	frag := kdtree.Arena{
		Nodes: []kdtree.Node{
			{SplitDim: 1, SplitVal: 0.5, Left: kdtree.Ref{Part: kdtree.Local, Node: 1}, Right: kdtree.Ref{Part: 4, Node: 2}},
			{Leaf: true, Slots: []int32{0}},
			{Moved: true, Fwd: kdtree.Ref{Part: 2, Node: 5}},
		},
		Coords: pt.Coords,
		IDs:    []uint64{pt.ID},
		Boxes:  []float64{1.5, -2, 9, 9, 1.5, -2, 1.5, -2, inf, inf, -inf, -inf},
		Self:   kdtree.Local,
		Dim:    2,
	}
	remote := []RemoteBox{{Ref: kdtree.Ref{Part: 4, Node: 2}, Lo: []float64{3, 3}, Hi: []float64{9, 9}}}
	state := PartitionSnapshot{Arena: frag, Points: 1, Remote: remote}
	rs := []kdtree.Neighbor{{Point: pt, Dist: 2.25}}
	stats := queryStats{Nodes: 1, Buckets: 2, Dists: 3, Msgs: 4, Parts: 5, Misses: 6}
	return []any{
		ack{},
		bulkAddReq{Entries: []batchEntry{entry, entry}, Policy: landGraft},
		bulkAddReq{Entries: []batchEntry{entry}, Policy: landAppend},
		installReq{Frag: frag, Remote: remote, Entry: -1},
		installResp{Node: 9, OK: true},
		snapshotReq{},
		snapshotResp{State: state},
		restoreReq{State: state},
		knnReq{Node: 2, Query: []float64{0, 1}, K: 3, Rs: rs, Seq: true, Entries: []knnEntry{{Node: 1, GuardSq: -1}}},
		knnResp{Rs: rs, Stats: stats},
		rangeReq{Node: 1, Query: []float64{0, 1}, D: 0.5},
		rangeResp{Neighbors: rs, Stats: stats},
		statsReq{},
		statsResp{Points: 1, Nodes: 2, Leaves: 3, NavSteps: 4, Inserts: 6, BoxWork: 5},
	}
}

// parseCoreFile parses one non-test source file of this package.
func parseCoreFile(t *testing.T, name string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// registers reports whether f calls cluster.RegisterKind or
// cluster.RegisterMessage.
func registers(f *ast.File) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "RegisterKind" || sel.Sel.Name == "RegisterMessage") {
				found = true
			}
		}
		return !found
	})
	return found
}

// wireRoundTrip encodes m, decodes it with the kind table's decoder and
// encodes the result again, returning both encodings.
func wireRoundTrip(t *testing.T, m cluster.Message) (any, []byte, []byte) {
	t.Helper()
	var enc column.Appender
	m.AppendWire(&enc)
	decode := kinds[m.WireKind()]
	if decode == nil {
		t.Fatalf("%T: kind %d is not in the kind table", m, m.WireKind())
	}
	var d column.Decoder
	d.Reset(enc)
	got := decode(&d)
	if err := d.End(); err != nil {
		t.Fatalf("%T: decoding its own encoding: %v", m, err)
	}
	var again column.Appender
	got.(cluster.Message).AppendWire(&again)
	return got, enc, again
}

// TestProtocolTable: kinds, the kind table in messages.go, is the whole
// wire surface. Every protocol type has its own kind in it, and its
// codec is exact and canonical: a zero and a populated value decode to
// themselves and re-encode to the same bytes, and both cross a real TCP
// fabric without the gob fallback. Every request partition.handle
// dispatches on is in the table, and no other file registers anything
// — so a message without a codec fails here, not on the first TCP
// deployment.
func TestProtocolTable(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range files {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") && n != "messages.go" {
			if registers(parseCoreFile(t, n)) {
				t.Errorf("%s registers a wire type: the table lives in messages.go", n)
			}
		}
	}

	fabric := cluster.NewTCP()
	defer fabric.Close()
	echo, err := fabric.AddNode(func(_ context.Context, _ cluster.NodeID, req any) (any, error) { return req, nil })
	if err != nil {
		t.Fatal(err)
	}
	sampled := make(map[string]bool)
	byKind := make(map[byte]string)
	for _, full := range protocolSamples() {
		typ := reflect.TypeOf(full)
		sampled[typ.Name()] = true
		kind := full.(cluster.Message).WireKind()
		if other, dup := byKind[kind]; dup && other != typ.Name() {
			t.Errorf("%s and %s share kind %d", other, typ.Name(), kind)
		}
		byKind[kind] = typ.Name()
		for _, v := range []any{reflect.Zero(typ).Interface(), full} {
			got, enc, again := wireRoundTrip(t, v.(cluster.Message))
			if !reflect.DeepEqual(got, v) {
				t.Errorf("%s decoded to %+v from %+v", typ.Name(), got, v)
			}
			if !bytes.Equal(enc, again) {
				t.Errorf("%s re-encoded to %x, first %x", typ.Name(), again, enc)
			}
			got, err := fabric.Call(context.Background(), cluster.ClientID, echo, v)
			if err != nil {
				t.Errorf("%s over TCP: %v", typ.Name(), err)
			} else if !reflect.DeepEqual(got, v) {
				t.Errorf("%s over TCP: got %+v, sent %+v", typ.Name(), got, v)
			}
		}
	}
	if len(byKind) != len(kinds) {
		t.Errorf("%d types sampled %v, the kind table has %d", len(byKind), byKind, len(kinds))
	}
	if n := fabric.Stats().Fallback; n != 0 {
		t.Errorf("%d protocol messages took the gob fallback", n)
	}

	var cases []string
	ast.Inspect(parseCoreFile(t, "partition.go"), func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "handle" {
			return true
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, typ := range cc.List {
					cases = append(cases, typ.(*ast.Ident).Name)
				}
			}
			return true
		})
		return false
	})
	if len(cases) != 7 {
		t.Errorf("partition.handle dispatches on %d request kinds %v, want 7", len(cases), cases)
	}
	if len(kinds) != 13 {
		t.Errorf("messages.go has %d kinds, want 13", len(kinds))
	}
	for _, c := range cases {
		if !sampled[c] {
			t.Errorf("partition.handle handles %s, which has no kind in messages.go", c)
		}
	}

	// An arena travels as its v4 columns and no box block: a bulk-built
	// fragment's installReq is the payloads of the columns a snapshot
	// file writes for it, its remote boxes' runs and a short header —
	// and decodes with every box rebuilt.
	const n, dim = 2000, 8
	seq, err := kdtree.BulkLoad(randomPoints(rand.New(rand.NewSource(7)), n, dim), dim, 16)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := seq.Box(0)
	req := installReq{Frag: seq.Arena, Remote: []RemoteBox{{Ref: kdtree.Ref{Part: 3}, Lo: lo, Hi: hi}}, Entry: -1}
	var enc column.Appender
	req.AppendWire(&enc)
	var file bytes.Buffer
	w := column.NewWriter(&file)
	if err := WriteSnapshot(w, &TreeSnapshot{Dim: dim, Size: n, Parts: []PartitionSnapshot{{Arena: seq.Arena, Points: n, Remote: req.Remote}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := column.NewReader(&file)
	payloads := 0
	for i := range 5 { // the tree's column, then the partition's four
		if err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			payloads += r.Len()
		}
	}
	runs := 2 * (1 + 8*dim)
	header := len(enc) - payloads - runs
	t.Logf("a %d-point installReq: %d bytes of v4 column payloads, %d of remote runs, a header of %d", n, payloads, runs, header)
	if header < 0 || header > 16 {
		t.Errorf("a %d-point installReq has a header of %d bytes, want at most 16", n, header)
	}
	var d column.Decoder
	d.Reset(enc)
	got := readInstallReq(&d).(installReq)
	if err := d.End(); err != nil || !slices.Equal(got.Frag.Boxes, seq.Boxes) || !slices.Equal(got.Frag.Coords, seq.Coords) {
		t.Errorf("a bulk-built installReq decoded to other boxes or points (%v)", err)
	}
}

// TestDecodeRejectsUnusedCounts: a count or a length that promises more
// than what follows it uses is malformed — an installReq's float count,
// its fragment's point count and the length of each of its four column
// blocks — so a decoder accepts only the encoding AppendWire writes, a
// block as strictly as the file reads its column. So is a node count
// beyond what an arena's points and remote boxes allow, and a
// bulkAddReq's landing policy byte other than 0 or 1.
func TestDecodeRejectsUnusedCounts(t *testing.T) {
	var enc column.Appender
	protocolSamples()[3].(installReq).AppendWire(&enc)
	var d column.Decoder
	d.Reset(enc)
	at := map[string]int{"float count": 0} // where each uvarint starts in enc
	d.Uvarint()
	d.Uvarint() // the dimension
	d.Int32()   // Self
	for _, name := range []string{"node column", "ID column", "coordinate block", "remote column"} {
		at[name+" length"] = len(enc) - d.Len()
		body := d.Block()
		if name == "node column" {
			at["point count"] = len(enc) - d.Len() - len(body)
		}
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	for name, off := range at {
		v, k := binary.Uvarint(enc[off:])
		b := binary.AppendUvarint(append([]byte(nil), enc[:off]...), v+1)
		d.Reset(append(b, enc[off+k:]...))
		readInstallReq(&d)
		if d.End() == nil {
			t.Errorf("an installReq whose %s is one too high decoded", name)
		}
	}

	// A landing policy is one boolean byte: any other value is malformed.
	enc = enc[:0]
	protocolSamples()[1].(bulkAddReq).AppendWire(&enc)
	_, k := binary.Uvarint(enc) // the policy byte follows the float count
	for _, policy := range []byte{2, 0xff} {
		d.Reset(append(append(append([]byte(nil), enc[:k]...), policy), enc[k+1:]...))
		readBulkAddReq(&d)
		if d.End() == nil {
			t.Errorf("a bulkAddReq with landing policy byte %d decoded", policy)
		}
	}

	// A node takes two bytes and its rebuilt box 2·Dim floats: a node
	// count that the points and remote boxes cannot account for is
	// refused before the box block is allocated.
	leaves := make([]kdtree.Node, 64)
	for i := range leaves {
		leaves[i].Leaf = true
	}
	enc = enc[:0]
	installReq{Frag: kdtree.Arena{Nodes: leaves, Self: kdtree.Local, Dim: MaxSnapshotDim}}.AppendWire(&enc)
	d.Reset(enc)
	readInstallReq(&d)
	if d.End() == nil {
		t.Errorf("%d empty leaves of dimension %d decoded from %d bytes", len(leaves), MaxSnapshotDim, len(enc))
	}
}

// knnExchange is a k-NN hop's request and reply: a query of dims
// coordinates, and k neighbours each way.
func knnExchange(dims, k int) (knnReq, knnResp) {
	rs := make([]kdtree.Neighbor, k)
	for i := range rs {
		coords := make([]float64, dims)
		for d := range coords {
			coords[d] = float64(i*dims + d)
		}
		rs[i] = kdtree.Neighbor{Point: kdtree.Point{Coords: coords, ID: uint64(1000 + i)}, Dist: float64(i) / 3}
	}
	req := knnReq{Node: 4, Query: make([]float64, dims), K: k, Rs: rs, Seq: true}
	return req, knnResp{Rs: rs, Stats: queryStats{Nodes: 40, Buckets: 9, Dists: 150, Msgs: 2, Parts: 3, Misses: 1}}
}

// knnEcho starts a TCP node that answers every request with resp and
// returns a call that sends it req.
func knnEcho(tb testing.TB, dims, k int) (call func() error, stop func()) {
	fabric := cluster.NewTCP()
	req, resp := knnExchange(dims, k)
	var in, out any = req, resp // boxed once, so the calls measure the exchange
	id, err := fabric.AddNode(func(context.Context, cluster.NodeID, any) (any, error) { return out, nil })
	if err != nil {
		tb.Fatal(err)
	}
	return func() error {
		got, err := fabric.Call(context.Background(), cluster.ClientID, id, in)
		if err == nil && len(got.(knnResp).Rs) != k {
			err = fmt.Errorf("reply of %d neighbours, want %d", len(got.(knnResp).Rs), k)
		}
		return err
	}, func() { fabric.Close() }
}

// TestKNNExchangeAllocs gates the codec on the query path: a warmed
// knnReq→knnResp exchange over TCP (dims 8, k 10, ten neighbours each
// way) allocates, on each side, the payload, its neighbour slice and
// one float block — never one slice per point. Measured: 6 (99 when
// the fabric spoke gob).
func TestKNNExchangeAllocs(t *testing.T) {
	call, stop := knnEcho(t, 8, 10)
	defer stop()
	if err := call(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per warmed k-NN exchange", got)
	if got > 24 {
		t.Fatalf("%.0f allocs per warmed k-NN exchange, want at most 24", got)
	}
}

func BenchmarkTCPKNNExchange(b *testing.B) {
	call, stop := knnEcho(b, 8, 10)
	defer stop()
	b.ReportAllocs()
	for range b.N {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPBulkLoad is a bulk load of 100 000 random 8-dimensional
// points into an empty nine-partition tree over loopback TCP: eight
// frontier installs and the trunk's graft, each an arena on the wire.
// It reports the fabric's traffic per load, MiB/op and msgs/op.
func BenchmarkTCPBulkLoad(b *testing.B) {
	const n, dim = 100_000, 8
	pts := randomPoints(rand.New(rand.NewSource(1)), n, dim)
	var sent, msgs int64
	for range b.N {
		fabric := cluster.NewTCP()
		tr, err := New(Config{Dim: dim, PartitionCapacity: n / 8, MaxPartitions: 9, Fabric: fabric})
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.BulkLoad(context.Background(), pts); err != nil {
			b.Fatal(err)
		}
		st := fabric.Stats()
		sent, msgs = sent+st.Bytes, msgs+st.Messages
		tr.Close()
		fabric.Close()
	}
	b.ReportMetric(float64(sent)/float64(b.N)/(1<<20), "MiB/op")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

// checkAgainstScan holds tr to the flat scan over pts — IDs and distance
// bits, rank by rank — on k-nearest under both protocols and on range.
func checkAgainstScan(t *testing.T, tr *Tree, pts []kdtree.Point, queries [][]float64, stage string) {
	t.Helper()
	if tr.Len() != len(pts) {
		t.Fatalf("%s: Len = %d, want %d", stage, tr.Len(), len(pts))
	}
	for i, q := range queries {
		all := flatScan(pts, q, -1)
		for _, p := range []Protocol{ProtocolSequential, ProtocolFanOut} {
			if err := sameAnswer(mustKNN(t, tr, q, 6, p), all[:6]); err != nil {
				t.Fatalf("%s: query %d, k-NN protocol %d: %v", stage, i, p, err)
			}
		}
		radius := all[9].Dist
		got, err := tr.RangeSearch(context.Background(), q, radius)
		if err != nil {
			t.Fatalf("%s: query %d range: %v", stage, i, err)
		}
		if err := sameAnswer(got, flatScan(pts, q, radius)); err != nil {
			t.Fatalf("%s: query %d range: %v", stage, i, err)
		}
	}
}

// TestProtocolOverTCP drives every request kind over real sockets on
// one nine-partition tree — the root graft of a bulk load, concurrent
// and one-at-a-time inserts, the spills they trigger, a bulk merge into
// the live tree, snapshot and restore, and the rebalance's restore-empty
// and installs — checking every stage against the flat scan.
func TestProtocolOverTCP(t *testing.T) {
	fabric := cluster.NewTCP()
	defer fabric.Close()
	r := rand.New(rand.NewSource(61))
	pts := clusteredPoints(r, 1000, 4, 5)
	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = clusteredPoints(r, 1, 4, 5)[0].Coords
	}
	// Round-robin spills scatter neighbouring leaves over the partitions:
	// the most cross-partition edges for the queries to cross.
	cfg := Config{Dim: 4, BucketSize: 8, PartitionCapacity: 64, MaxPartitions: 9, Fabric: fabric}
	tr := mustTreePlaced(t, cfg, roundRobin)
	ctx := context.Background()

	// Fits one partition: the whole balanced tree grafts onto the root.
	if err := tr.BulkLoad(ctx, pts[:60]); err != nil {
		t.Fatal(err)
	}
	checkAgainstScan(t, tr, pts[:60], queries, "bulk load on the empty tree")
	if err := tr.InsertAll(pts[60:300], 2); err != nil {
		t.Fatal(err)
	}
	if tr.PartitionCount() < 2 {
		t.Fatalf("inserts past the capacity spilled into %d partitions", tr.PartitionCount())
	}
	checkAgainstScan(t, tr, pts[:300], queries, "inserts and spills")
	if err := tr.InsertAll(pts[300:600], 1); err != nil {
		t.Fatal(err)
	}
	checkAgainstScan(t, tr, pts[:600], queries, "one-at-a-time inserts")
	if err := tr.BulkLoad(ctx, pts[600:]); err != nil {
		t.Fatal(err)
	}
	checkAgainstScan(t, tr, pts, queries, "bulk load on the live tree")

	checkPartitionBoxes(t, tr)

	other := cluster.NewTCP()
	defer other.Close()
	cfg.Fabric = other
	restored, err := RestoreTree(cfg, liveSnapshot(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	checkAgainstScan(t, restored, pts, queries, "snapshot and restore")

	if err := tr.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if tr.PartitionCount() != 9 {
		t.Fatalf("rebalanced over %d partitions, want 9", tr.PartitionCount())
	}
	checkAgainstScan(t, tr, pts, queries, "rebalance")
	checkPartitionBoxes(t, tr)

	for _, f := range []*cluster.TCP{fabric, other} {
		if n := f.Stats().Fallback; n != 0 {
			t.Errorf("%d protocol messages took the gob fallback", n)
		}
	}
}

// failingInstalls fails the k-th installReq it carries, once, with a
// plain (non-transient) error before the message is delivered.
type failingInstalls struct {
	cluster.Fabric
	k, seen atomic.Int64
}

func (f *failingInstalls) Call(ctx context.Context, from, to cluster.NodeID, req any) (any, error) {
	if _, ok := req.(installReq); ok && f.seen.Add(1) == f.k.Load() {
		return nil, errors.New("injected install failure")
	}
	return f.Fabric.Call(ctx, from, to, req)
}

// TestRebalanceFailedInstallKeepsPoints: between its reset and its
// install a rebalance holds the only copy of the data; an install that
// fails — a frontier subtree's or the trunk's — must put every point
// back before reporting the error.
func TestRebalanceFailedInstallKeepsPoints(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	pts := randomPoints(r, 900, 3)
	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = randomPoints(r, 1, 3)[0].Coords
	}
	// A rebalance over 5 partitions is one install per frontier subtree
	// (at least 4) and then the trunk's.
	for _, k := range []int64{1, 3, 5} {
		fabric := &failingInstalls{Fabric: cluster.NewInProc(cluster.InProcOptions{})}
		defer fabric.Close()
		tr := mustTree(t, Config{Dim: 3, BucketSize: 8, MaxPartitions: 5, Fabric: fabric})
		if err := tr.InsertAll(pts, 1); err != nil {
			t.Fatal(err)
		}
		fabric.k.Store(fabric.seen.Load() + k)
		if err := tr.Rebalance(); err == nil {
			t.Fatalf("install %d failed and Rebalance reported nothing", k)
		}
		checkAgainstScan(t, tr, pts, queries, "failed rebalance")
		if st, err := tr.Stats(); err != nil || st.Points != len(pts) {
			t.Fatalf("install %d failed: partitions hold %d points (%v), want %d", k, st.Points, err, len(pts))
		}
		// The failure was a one-off: the next pass rebalances.
		if err := tr.Rebalance(); err != nil {
			t.Fatal(err)
		}
		checkAgainstScan(t, tr, pts, queries, "rebalance after a failed one")
		if st, err := tr.Stats(); err != nil || st.PartitionPoints[0] != 0 {
			t.Fatalf("second rebalance left %d points on the root (%v)", st.PartitionPoints[0], err)
		}
	}
}

// TestRebalanceOrderStable: the points Rebalance gathers from a
// snapshot are, element for element, what a recursive walk of the live
// partitions yields — preorder, left before right, tombstones and links
// followed — on a spilled tree with tombstones. The balanced builder's
// layout depends on that order.
func TestRebalanceOrderStable(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	tr := mustTreePlaced(t, Config{
		Dim: 4, BucketSize: 8,
		PartitionCapacity: 96, MaxPartitions: 6,
	}, roundRobin)
	if err := tr.InsertAll(clusteredPoints(r, 1500, 4, 4), 1); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int32]*partition)
	tombstones := 0
	for _, p := range tr.parts {
		byID[p.Self] = p
		for i := range p.Nodes {
			if p.Nodes[i].Moved {
				tombstones++
			}
		}
	}
	if tombstones == 0 || len(byID) < 3 {
		t.Fatalf("%d tombstones on %d partitions: the layout exercises nothing", tombstones, len(byID))
	}
	var want []kdtree.Point
	var visit func(ref kdtree.Ref)
	visit = func(ref kdtree.Ref) {
		switch n := &byID[ref.Part].Nodes[ref.Node]; {
		case n.Moved:
			visit(n.Fwd)
		case n.Leaf:
			want = byID[ref.Part].AppendBucket(want, ref.Node)
		default:
			visit(n.Left)
			visit(n.Right)
		}
	}
	visit(tr.rootPartition().Ref(0))
	// A tombstone is never a child — the parent edge is the direct link —
	// so start one walk at each to hold the Fwd step to the same order.
	snap := liveSnapshot(t, tr)
	got := snap.pointsUnder(kdtree.Ref{})
	for pi, p := range tr.parts {
		for ni := range p.Nodes {
			if p.Nodes[ni].Moved {
				visit(p.Ref(int32(ni)))
				got = append(got, snap.pointsUnder(kdtree.Ref{Part: int32(pi), Node: int32(ni)})...)
			}
		}
	}
	if len(got) != len(want) || len(want) < 1500 {
		t.Fatalf("snapshot walk gathered %d points, live walk %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("point %d: snapshot walk has ID %d, live walk ID %d", i, got[i].ID, want[i].ID)
		}
	}
}
