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
	"sync"
	"sync/atomic"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/cluster/clustertest"
	"semtree/internal/column"
	"semtree/internal/kdtree"
)

// protocolSamples is one populated value of every type the partition
// protocol puts on a fabric — bulkAddReq once per landing policy, and
// knnReq by pointer, as it travels. A neighbour is an ID and a
// distance: the wire carries no more of it. TestProtocolTable holds the
// samples equal, as a set of kinds, to the kind table in messages.go.
func protocolSamples() []any {
	pt := kdtree.Point{Coords: []float64{1.5, -2}, ID: 7}
	entry := batchEntry{Node: 3, Point: pt}
	inf := math.Inf(1)
	// A routing node over a leaf and a link, and an unreachable link with
	// an empty box. The leaf's IDs fall, then wrap past 2^64: the ID
	// column's differences are signed and wrap.
	frag := kdtree.Arena{
		Nodes: []kdtree.Node{
			{SplitDim: 1, SplitVal: 0.5, Left: kdtree.Ref{Part: kdtree.Local, Node: 1}, Right: kdtree.Ref{Part: kdtree.Local, Node: 2}},
			{Leaf: true, Slots: []int32{0, 1, 2}},
			{Moved: true, Fwd: kdtree.Ref{Part: 4, Node: 2}},
			{Moved: true, Fwd: kdtree.Ref{Part: 2, Node: 5}},
		},
		Coords: []float64{1.5, -2, 0.5, 1, 1, 0},
		IDs:    []uint64{pt.ID, 2, 1<<63 + 5},
		Boxes:  []float64{0.5, -2, 9, 9, 0.5, -2, 1.5, 1, 3, 3, 9, 9, inf, inf, -inf, -inf},
		Self:   kdtree.Local,
		Dim:    2,
	}
	// A routing node split at its left leaf's top in its split
	// dimension, as every bulk build splits: a message writes that
	// value raw, as it writes any other. Its leaves' IDs ascend.
	bulk := kdtree.Arena{
		Nodes: []kdtree.Node{
			{SplitDim: 0, SplitVal: 1, Left: kdtree.Ref{Part: kdtree.Local, Node: 1}, Right: kdtree.Ref{Part: kdtree.Local, Node: 2}},
			{Leaf: true, Slots: []int32{0, 1}},
			{Leaf: true, Slots: []int32{2}},
		},
		Coords: []float64{0.5, 3, 1, -1, 2, 0},
		IDs:    []uint64{3, 8, 20},
		Boxes:  []float64{0.5, -1, 2, 3, 0.5, -1, 1, 3, 2, 0, 2, 0},
		Self:   kdtree.Local,
		Dim:    2,
	}
	rs := []kdtree.Neighbor{{Point: kdtree.Point{ID: pt.ID}, Dist: 2.25}}
	stats := queryStats{Nodes: 1, Buckets: 2, Dists: 3, Msgs: 4, Parts: 5, Misses: 6}
	return []any{
		ack{},
		bulkAddReq{Entries: []batchEntry{entry, entry}, Policy: landGraft},
		bulkAddReq{Entries: []batchEntry{entry}, Policy: landAppend},
		installReq{Frag: frag, Entry: -1, Seq: 5},
		installReq{Frag: bulk, Entry: 0, Seq: 6},
		installResp{Node: 9, OK: true},
		snapshotReq{},
		snapshotResp{State: frag},
		restoreReq{State: frag},
		&knnReq{Node: 2, Query: []float64{0, 1}, K: 3, Rs: rs, Seq: true, Entries: []knnEntry{{Node: 1, GuardSq: -1}}},
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
// fabric without the gob fallback. A neighbour's coordinates are not
// part of its encoding. Every request partition.handle dispatches on is
// in the table, and no other file registers anything — so a message
// without a codec fails here, not on the first TCP deployment.
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
		name, zero := typ.Name(), reflect.Zero(typ).Interface()
		if typ.Kind() == reflect.Pointer { // knnReq: its zero value is a pointer to a zero knnReq
			name, zero = "*"+typ.Elem().Name(), reflect.New(typ.Elem()).Interface()
		}
		sampled[name] = true
		kind := full.(cluster.Message).WireKind()
		if other, dup := byKind[kind]; dup && other != name {
			t.Errorf("%s and %s share kind %d", other, name, kind)
		}
		byKind[kind] = name
		for _, v := range []any{zero, full} {
			got, enc, again := wireRoundTrip(t, v.(cluster.Message))
			if !reflect.DeepEqual(got, v) {
				t.Errorf("%s decoded to %+v from %+v", name, got, v)
			}
			if !bytes.Equal(enc, again) {
				t.Errorf("%s re-encoded to %x, first %x", name, again, enc)
			}
			got, err := fabric.Call(context.Background(), cluster.ClientID, echo, v)
			if err != nil {
				t.Errorf("%s over TCP: %v", name, err)
			} else if !reflect.DeepEqual(got, v) {
				t.Errorf("%s over TCP: got %+v, sent %+v", name, got, v)
			}
		}
	}
	// Neighbours with coordinates encode to the bytes of the same
	// neighbours without: a result set leaves its points' coordinates
	// behind.
	withCoords := []kdtree.Neighbor{
		{Point: kdtree.Point{Coords: []float64{1.5, -2}, ID: 7}, Dist: 2.25},
		{Point: kdtree.Point{Coords: []float64{3, 4}, ID: 9}, Dist: 6.5},
	}
	bare := []kdtree.Neighbor{{Point: kdtree.Point{ID: 7}, Dist: 2.25}, {Point: kdtree.Point{ID: 9}, Dist: 6.5}}
	for _, pair := range [][2]cluster.Message{
		{&knnReq{Query: []float64{0, 1}, K: 2, Rs: withCoords}, &knnReq{Query: []float64{0, 1}, K: 2, Rs: bare}},
		{knnResp{Rs: withCoords}, knnResp{Rs: bare}},
		{rangeResp{Neighbors: withCoords}, rangeResp{Neighbors: bare}},
	} {
		got, enc, _ := wireRoundTrip(t, pair[0])
		_, want, _ := wireRoundTrip(t, pair[1])
		if !bytes.Equal(enc, want) || !reflect.DeepEqual(got, pair[1]) {
			t.Errorf("%T with coordinates encodes to %x and decodes to %+v, want %x and %+v", pair[0], enc, got, want, pair[1])
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
					if star, ok := typ.(*ast.StarExpr); ok {
						cases = append(cases, "*"+star.X.(*ast.Ident).Name)
					} else {
						cases = append(cases, typ.(*ast.Ident).Name)
					}
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

	// An error reply is typed: a partition's refusal crosses TCP as
	// ErrRequestRefused, permanent, with its text, and the partition
	// answers the next request.
	tr := mustTree(t, Config{Dim: 2, Fabric: fabric})
	root := tr.rootPartition().id
	if _, err := fabric.Call(context.Background(), cluster.ClientID, root, rangeReq{Node: 9, Query: []float64{0, 1}, D: 1}); !errors.Is(err, ErrRequestRefused) || errors.Is(err, cluster.ErrTransient) {
		t.Errorf("a range request at node 9 of a one-node arena over TCP: %v, want a refusal", err)
	}
	if _, err := fabric.Call(context.Background(), cluster.ClientID, root, rangeReq{Query: []float64{0, 1}, D: 1}); err != nil {
		t.Errorf("the refusing partition no longer answers: %v", err)
	}

	// An arena travels as its snapshot columns and no box block but its
	// links': a trunk cut from a bulk-built tree, one half of it a link,
	// travels in an installReq as the payloads of the columns a tree
	// snapshot (EncodeSnapshot) writes for it, 8 bytes for every split
	// value the file leaves out and the message writes raw, its link's
	// box as two runs and a short header — and decodes with every box
	// rebuilt.
	const n, dim = 2000, 8
	seq, err := kdtree.BulkLoad(randomPoints(rand.New(rand.NewSource(7)), n, dim), dim, 16)
	if err != nil {
		t.Fatal(err)
	}
	trunk := seq.Extract(0, map[int32]kdtree.Ref{seq.Nodes[0].Right.Node: {Part: 3}})
	req := installReq{Frag: trunk, Entry: 0}
	var enc column.Appender
	req.AppendWire(&enc)
	var file bytes.Buffer
	snap := &TreeSnapshot{Dim: dim, Parts: []kdtree.Arena{trunk}}
	if err := EncodeSnapshot(&file, snap); err != nil {
		t.Fatal(err)
	}
	fit, leftOut := snap.readerBoxes(), 0
	for i := range trunk.Nodes {
		if nodeState(&snap.Parts[0], &fit[0], &trunk.Nodes[i])&stateLeftMax != 0 {
			leftOut++
		}
	}
	r := column.NewReader(&file)
	if _, _, err := r.Header(); err != nil {
		t.Fatal(err)
	}
	payloads := 0
	for i := range 4 { // the tree's column, then the partition's three
		if err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			payloads += r.Len()
		}
	}
	runs := 2 * (1 + 8*dim)
	header := len(enc) - payloads - 8*leftOut - runs
	t.Logf("a %d-point installReq: %d bytes of column payloads, %d split values the file leaves out, %d bytes of link runs, a header of %d",
		len(trunk.IDs), payloads, leftOut, runs, header)
	if header < 0 || header > 16 {
		t.Errorf("a %d-point installReq has a header of %d bytes, want at most 16", len(trunk.IDs), header)
	}
	var d column.Decoder
	d.Reset(enc)
	got := readInstallReq(&d).(installReq)
	if err := d.End(); err != nil || !slices.Equal(got.Frag.Boxes, trunk.Boxes) || !slices.Equal(got.Frag.Coords, trunk.Coords) {
		t.Errorf("a bulk-built installReq decoded to other boxes or points (%v)", err)
	}
}

// TestDecodeRejectsUnusedCounts: a count or a length that promises more
// than what follows it uses is malformed — an installReq's float count,
// its fragment's point count, its leaf's bucket length and the length of
// each of its three column blocks — so a decoder accepts only the
// encoding AppendWire writes, a block as strictly as the file reads its
// column. So is a node count beyond what an arena's points and link
// boxes allow, and a bulkAddReq's landing policy byte other than 0 or 1.
func TestDecodeRejectsUnusedCounts(t *testing.T) {
	var enc column.Appender
	protocolSamples()[3].(installReq).AppendWire(&enc)
	var d column.Decoder
	d.Reset(enc)
	at := map[string]int{"float count": 0} // where each uvarint starts in enc
	d.Uvarint()
	d.Uvarint() // the dimension
	d.Int32()   // Self
	for _, name := range []string{"node column", "ID column", "coordinate block"} {
		at[name+" length"] = len(enc) - d.Len()
		body := d.Block()
		if name == "node column" {
			start := len(enc) - d.Len() - len(body)
			at["point count"] = start
			// The leaf, node 1, follows the node count and the routing
			// node: its state byte, split dimension, split value and
			// two child offsets.
			var nodes column.Decoder
			nodes.Reset(body)
			nodes.Uvarint()
			nodes.Uvarint()
			nodes.Byte()
			nodes.Uvarint()
			nodes.Float()
			nodes.Varint()
			nodes.Varint()
			nodes.Byte()
			at["bucket length"] = start + len(body) - nodes.Len()
			if nodes.Uvarint() != 3 || nodes.Err() != nil {
				t.Fatalf("node column %x: no 3-point leaf at node 1", body)
			}
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
	// count that the points and link boxes cannot account for is
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

// rawMsg is a frame body sent under a wire kind as it is, for the
// receiving end to decode as that kind's message.
type rawMsg struct {
	kind byte
	body []byte
}

func (m rawMsg) WireKind() byte                { return m.kind }
func (m rawMsg) AppendWire(a *column.Appender) { *a = append(*a, m.body...) }

// TestRestoreCountsItsArena: a partition's count is the bucket total of
// the arena it restores, never a count a message claims. A restoreReq
// of a bulk-loaded partition's own 64-point state whose node column
// claims 100 points does not decode, over TCP and on InProc under the
// fault seam, which decodes every request as TCP does: the partition
// keeps its count. The same request with its true count restores.
func TestRestoreCountsItsArena(t *testing.T) {
	const n = 64
	pts := randomPoints(rand.New(rand.NewSource(3)), n, 2)
	for name, fabric := range map[string]cluster.Fabric{
		"tcp":    cluster.NewTCP(),
		"inproc": clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{}),
	} {
		defer fabric.Close()
		tr := mustTree(t, Config{Dim: 2, BucketSize: 4, Fabric: fabric})
		if err := tr.BulkLoad(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
		root := tr.rootPartition()
		var enc column.Appender
		restoreReq{State: root.Clone()}.AppendWire(&enc)
		// The node column is the first block, after the float count, the
		// dimension and Self; its body opens with the count, one byte.
		var d column.Decoder
		d.Reset(enc)
		d.Uvarint()
		d.Uvarint()
		d.Int32()
		d.Uvarint() // the block's length
		at := len(enc) - d.Len()
		if enc[at] != n {
			t.Fatalf("%s: the node column opens with %d, want %d", name, enc[at], n)
		}
		claim := slices.Clone(enc)
		claim[at] = 100
		ctx := context.Background()
		if _, err := fabric.Call(ctx, cluster.ClientID, root.id, rawMsg{kindRestoreReq, claim}); err == nil {
			t.Errorf("%s: a restore claiming 100 points over %d restored", name, n)
		}
		if _, err := fabric.Call(ctx, cluster.ClientID, root.id, rawMsg{kindRestoreReq, enc}); err != nil {
			t.Fatalf("%s: the partition's own state: %v", name, err)
		}
		if st, err := tr.Stats(); err != nil || tr.Len() != n || st.PartitionPoints[0] != n {
			t.Errorf("%s: Len %d, the partition counts %v (%v), want %d", name, tr.Len(), st.PartitionPoints, err, n)
		}
	}
}

// TestLeafAndLinkRefused: a node column may not mark a link a leaf —
// k-NN would take the node for a leaf, range search and Descend for a
// link — so over TCP and on InProc under the fault seam, a restoreReq
// of the fuzz tree's root partition with one of its links given the
// leaf bit, and a trunk graft over an empty tree's root whose link has
// it, are refused, and each leaves the partition as it was.
func TestLeafAndLinkRefused(t *testing.T) {
	ctx := context.Background()
	for name, fabric := range map[string]cluster.Fabric{
		"tcp":    cluster.NewTCP(),
		"inproc": clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{}),
	} {
		defer fabric.Close()
		cfg := fuzzConfig
		cfg.Fabric = fabric
		refused := func(tr *Tree, m cluster.Message, what string) {
			t.Helper()
			root := tr.rootPartition()
			before, n := partitionBytes(t, root), tr.Len()
			if _, err := fabric.Call(ctx, cluster.ClientID, root.id, m); !errors.Is(err, ErrRequestRefused) {
				t.Errorf("%s: %s: %v, want a refusal", name, what, err)
			}
			if tr.Len() != n || !bytes.Equal(partitionBytes(t, root), before) {
				t.Errorf("%s: a refused %s changed the partition", name, what)
			}
		}

		tr := mustTree(t, cfg)
		if err := tr.BulkLoad(ctx, fuzzPoints()); err != nil || tr.PartitionCount() != 3 {
			t.Fatalf("%s: the fuzz tree: %d partitions, %v", name, tr.PartitionCount(), err)
		}
		refused(tr, leafAndLinkRestore(tr), "restore of the root's state with a link marked a leaf")

		empty := mustTree(t, cfg)
		data := empty.allocPartitions(1)
		frag := kdtree.Arena{
			Nodes: []kdtree.Node{
				{SplitVal: 4, Left: kdtree.Ref{Part: kdtree.Local, Node: 1}, Right: kdtree.Ref{Part: kdtree.Local, Node: 2}},
				{Leaf: true, Slots: []int32{0}},
				{Leaf: true, Moved: true, Fwd: refTo(data[0], 0)},
			},
			Coords: []float64{1, 1}, IDs: []uint64{7}, Boxes: make([]float64, 12),
			Self: kdtree.Local, Dim: 2,
		}
		refused(empty, installReq{Frag: frag, Entry: 0, Seq: empty.installs.Add(1)}, "trunk graft whose link is marked a leaf")
	}
}

// leafAndLinkRestore returns a restoreReq of the root partition's own
// state with its first link marked a leaf as well.
func leafAndLinkRestore(tr *Tree) restoreReq {
	root := tr.rootPartition()
	root.mu.RLock()
	st := root.Clone()
	root.mu.RUnlock()
	st.Nodes[slices.IndexFunc(st.Nodes, func(n kdtree.Node) bool { return n.Moved })].Leaf = true
	return restoreReq{State: st}
}

// knnServed starts one partition over 2 000 random points of dims
// coordinates on a TCP fabric and returns a call that sends it a k-NN
// hop — a query, K = k and a seed of k neighbours farther than any point,
// so that the reply carries k finds — and releases the reply as a hop
// does, and the fabric.
func knnServed(tb testing.TB, dims, k int) (call func() error, fabric *cluster.TCP) {
	fabric = cluster.NewTCP()
	tr, err := New(Config{Dim: dims, Fabric: fabric})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tr.Close() })
	r := rand.New(rand.NewSource(83))
	if err := tr.BulkLoad(context.Background(), randomPoints(r, 2000, dims)); err != nil {
		tb.Fatal(err)
	}
	seed := make([]kdtree.Neighbor, k)
	for i := range seed {
		seed[i] = kdtree.Neighbor{Point: kdtree.Point{ID: uint64(1_000_000 + i)}, Dist: 1e9}
	}
	req := &knnReq{Query: randomPoints(r, 1, dims)[0].Coords, K: k, Rs: seed, Seq: true}
	root := tr.rootPartition().id
	return func() error {
		resp, err := fabric.Call(context.Background(), cluster.ClientID, root, req)
		if err != nil {
			return err
		}
		kr := resp.(*knnResp)
		if len(kr.Rs) != k {
			err = fmt.Errorf("reply of %d neighbours, want %d", len(kr.Rs), k)
		}
		knnResps.Put(kr)
		return err
	}, fabric
}

// TestKNNExchangeAllocs gates the codec on the query path: a warmed k-NN
// hop over TCP to a served partition (dims 8, k 10, ten neighbours each
// way) allocates nothing at either end. The serving end decodes the
// request into a pooled one, answers it on a parked worker with a
// pooled reply, and releases both once the reply is written; the
// calling end's reader decodes the reply into a pooled one, which the
// caller releases. Measured: 0 (2 when the caller's reply box and its
// neighbour slice were fresh, against an echo that never counted the
// handler's reply; 6 when each request was decoded fresh and answered
// on a goroutine of its own, 7 when neighbours carried their
// coordinates, 99 when the fabric spoke gob).
func TestKNNExchangeAllocs(t *testing.T) {
	call, fabric := knnServed(t, 8, 10)
	defer fabric.Close()
	if err := call(); err != nil {
		t.Fatal(err)
	}
	limit := 0.0
	if raceEnabled {
		limit = 12 // pools drop what is put back at random
	}
	got := testing.AllocsPerRun(200, func() {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per warmed k-NN exchange", got)
	if got > limit {
		t.Fatalf("%.0f allocs per warmed k-NN exchange, want at most %v", got, limit)
	}
}

// BenchmarkTCPKNNExchange is TestKNNExchangeAllocs's exchange; it
// reports the frame bytes of both directions per exchange, B/exchange.
func BenchmarkTCPKNNExchange(b *testing.B) {
	call, fabric := knnServed(b, 8, 10)
	defer fabric.Close()
	b.ReportAllocs()
	before := fabric.Stats().Bytes
	for range b.N {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fabric.Stats().Bytes-before)/float64(b.N), "B/exchange")
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
	if err := scanMismatch(tr, pts, queries); err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
}

// scanMismatch is checkAgainstScan's comparison, safe to run from any
// goroutine: the first query on which tr and the flat scan differ, or
// nil.
func scanMismatch(tr *Tree, pts []kdtree.Point, queries [][]float64) error {
	ctx := context.Background()
	for i, q := range queries {
		all := flatScan(pts, q, -1)
		for _, p := range []Protocol{ProtocolSequential, ProtocolFanOut} {
			got, _, err := tr.knnResolved(ctx, q, 6, p, false, nil)
			if err == nil {
				err = sameAnswer(got, all[:6])
			}
			if err != nil {
				return fmt.Errorf("query %d, k-NN protocol %d: %w", i, p, err)
			}
		}
		radius := all[9].Dist
		got, err := tr.RangeSearch(ctx, q, radius)
		if err == nil {
			err = sameAnswer(got, flatScan(pts, q, radius))
		}
		if err != nil {
			return fmt.Errorf("query %d range: %w", i, err)
		}
	}
	return nil
}

// TestConcurrentKNNOverTCP: a TCP serving end decodes each k-NN request
// into a pooled one and takes it back once the reply is written. Eight
// goroutines query nine TCP partitions at once, under both protocols,
// and every answer must be the flat scan's: a request released while
// its handler or a hop it sent still read it would be decoded over by
// another query's (and, under -race, be reported).
func TestConcurrentKNNOverTCP(t *testing.T) {
	fabric := cluster.NewTCP()
	defer fabric.Close()
	r := rand.New(rand.NewSource(73))
	pts := clusteredPoints(r, 2000, 4, 5)
	queries := make([][]float64, 8*12)
	for i := range queries {
		queries[i] = clusteredPoints(r, 1, 4, 5)[0].Coords
	}
	tr := mustTree(t, Config{Dim: 4, BucketSize: 8, PartitionCapacity: len(pts) / 8, MaxPartitions: 9, Fabric: fabric})
	if err := tr.BulkLoad(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if n := tr.PartitionCount(); n != 9 {
		t.Fatalf("%d partitions, want 9", n)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := scanMismatch(tr, pts, queries[g*12:(g+1)*12]); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
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
// partitions yields — preorder, left before right, links followed — on
// a spilled tree whose relocated leaves became links. The balanced
// builder's layout depends on that order.
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
	links := 0
	for _, p := range tr.parts {
		byID[p.Self] = p
		for i := range p.Nodes {
			if p.Nodes[i].Moved {
				links++
			}
		}
	}
	if links == 0 || len(byID) < 3 {
		t.Fatalf("%d links on %d partitions: the layout exercises nothing", links, len(byID))
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
	got := pointsUnder(t, liveSnapshot(t, tr), kdtree.Ref{})
	if len(got) != len(want) || len(want) < 1500 {
		t.Fatalf("snapshot walk gathered %d points, live walk %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("point %d: snapshot walk has ID %d, live walk ID %d", i, got[i].ID, want[i].ID)
		}
	}
}

// withNodesPastEnd returns m with every node it names set past the end
// of any arena the fuzz tree holds, or nil when it names none.
func withNodesPastEnd(m any) any {
	const past = 1 << 20
	switch r := m.(type) {
	case bulkAddReq:
		r.Entries = slices.Clone(r.Entries)
		for i := range r.Entries {
			r.Entries[i].Node = past
		}
		return r
	case installReq:
		r.Entry = past
		return r
	case *knnReq:
		m := *r
		m.Node, m.Entries = past, slices.Clone(r.Entries)
		for i := range m.Entries {
			m.Entries[i].Node = past
		}
		return &m
	case rangeReq:
		r.Node = past
		return r
	}
	return nil
}

// partitionBytes is the encoding of a partition's snapshot.
func partitionBytes(t *testing.T, p *partition) []byte {
	resp, err := p.handleSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var a column.Appender
	resp.(cluster.Message).AppendWire(&a)
	return a
}

// TestInstallRefusesLinksOffTheTrunk: a link's box travels with it and
// no receiver can check it, so only the balanced installer's trunk —
// a graft over node 0 of the root partition — may carry links. On the
// fuzz tree, a one-link fragment whose link names a hosted partition
// down the DAG is refused appended to the root or to a data partition
// and grafted over a data partition's leaf, and each refusal leaves the
// partition's snapshot bytes as they were.
func TestInstallRefusesLinksOffTheTrunk(t *testing.T) {
	tr := mustTree(t, fuzzConfig)
	if err := tr.BulkLoad(context.Background(), fuzzPoints()); err != nil || tr.PartitionCount() != 3 {
		t.Fatalf("the fuzz tree: %d partitions, %v", tr.PartitionCount(), err)
	}
	data := tr.parts[1]
	leaf := int32(slices.IndexFunc(data.Nodes, func(n kdtree.Node) bool { return n.Leaf }))
	for _, c := range []struct {
		p     *partition
		entry int32
	}{{tr.parts[0], -1}, {data, -1}, {data, leaf}} {
		frag := kdtree.Arena{Nodes: []kdtree.Node{{Moved: true, Fwd: refTo(tr.parts[2].id, 0)}}, Boxes: []float64{0, 0, 8, 9}, Self: kdtree.Local, Dim: 2}
		before := partitionBytes(t, c.p)
		_, err := c.p.handle(context.Background(), cluster.ClientID, installReq{Frag: frag, Entry: c.entry, Seq: tr.installs.Add(1)})
		if !errors.Is(err, ErrRequestRefused) {
			t.Errorf("a link installed at node %d of partition %d: %v, want a refusal", c.entry, c.p.id, err)
		}
		if !bytes.Equal(partitionBytes(t, c.p), before) {
			t.Errorf("a refused link install at node %d of partition %d changed it", c.entry, c.p.id)
		}
	}
}

// TestInstallRefusesGraftsOffTheRoot: a graft lands below every box
// above its entry leaf, and none of them grows to cover its points, so
// only node 0 of the root partition, the tree root, takes one. On the
// fuzz tree, a one-leaf fragment holding a point outside the tree's
// region is refused grafted over a data partition's leaf, and the
// refusal leaves the partition's snapshot bytes as they were.
func TestInstallRefusesGraftsOffTheRoot(t *testing.T) {
	tr := mustTree(t, fuzzConfig)
	if err := tr.BulkLoad(context.Background(), fuzzPoints()); err != nil || tr.PartitionCount() != 3 {
		t.Fatalf("the fuzz tree: %d partitions, %v", tr.PartitionCount(), err)
	}
	data := tr.parts[1]
	leaf := int32(slices.IndexFunc(data.Nodes, func(n kdtree.Node) bool { return n.Leaf }))
	frag := kdtree.Arena{
		Nodes:  []kdtree.Node{{Leaf: true, Slots: []int32{0}}},
		Coords: []float64{-50, -50}, IDs: []uint64{500}, Boxes: []float64{-50, -50, -50, -50},
		Self: kdtree.Local, Dim: 2,
	}
	before := partitionBytes(t, data)
	_, err := data.handle(context.Background(), cluster.ClientID, installReq{Frag: frag, Entry: leaf, Seq: tr.installs.Add(1)})
	if !errors.Is(err, ErrRequestRefused) {
		t.Errorf("a graft over node %d of partition %d: %v, want a refusal", leaf, data.id, err)
	}
	if !bytes.Equal(partitionBytes(t, data), before) {
		t.Error("a refused graft changed the partition")
	}
	checkPartitionBoxes(t, tr)
}

// fuzzPoints are the fuzz tree's points: a 9 × 10 grid, point i at
// (i mod 9, i div 9) with ID i. Bulk-loaded under fuzzConfig they
// spread over three partitions.
func fuzzPoints() []kdtree.Point {
	pts := make([]kdtree.Point, 90)
	for i := range pts {
		pts[i] = kdtree.Point{Coords: []float64{float64(i % 9), float64(i / 9)}, ID: uint64(i)}
	}
	return pts
}

// fuzzConfig is the fuzz tree's configuration.
var fuzzConfig = Config{Dim: 2, BucketSize: 4, PartitionCapacity: 16, MaxPartitions: 3}

// checkCounts requires, of a tree quiescent after an accepted request,
// every partition's count (Stats) to be its arena's bucket total, a
// full-cover range search to return exactly the IDs a walk of its
// snapshot reaches from the root, and a k-NN of K = Len() under either
// protocol to return exactly the distinct IDs that range search does.
// Distinct, not counted: a request may store an ID twice, outside the
// unique-ID contract, and the protocols need not then agree on the
// number of neighbours.
func checkCounts(t *testing.T, tr *Tree) {
	t.Helper()
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tr.parts {
		p.mu.RLock()
		n := bucketPoints(&p.Arena)
		p.mu.RUnlock()
		if st.PartitionPoints[i] != n {
			t.Fatalf("partition %d counts %d points, its buckets hold %d", p.id, st.PartitionPoints[i], n)
		}
	}
	var want []uint64
	for _, pt := range pointsUnder(t, liveSnapshot(t, tr), kdtree.Ref{}) {
		want = append(want, pt.ID)
	}
	got, err := tr.RangeSearch(context.Background(), []float64{4, 4}, math.MaxFloat64)
	if err != nil {
		t.Fatalf("a full-cover range search: %v", err)
	}
	ids := make([]uint64, len(got))
	for i, nb := range got {
		ids[i] = nb.Point.ID
	}
	slices.Sort(ids)
	slices.Sort(want)
	if !slices.Equal(ids, want) {
		t.Fatalf("a full-cover range search found %d points %v, the tree holds %d %v", len(ids), ids, len(want), want)
	}
	ids = slices.Compact(ids)
	for _, proto := range []Protocol{ProtocolSequential, ProtocolFanOut} {
		got, _, err := tr.knnResolved(context.Background(), []float64{4, 4}, tr.Len(), proto, false, nil)
		if err != nil {
			t.Fatalf("a k-NN of every point under protocol %v: %v", proto, err)
		}
		knn := make([]uint64, len(got))
		for i, nb := range got {
			knn[i] = nb.Point.ID
		}
		slices.Sort(knn)
		if knn = slices.Compact(knn); !slices.Equal(knn, ids) {
			t.Fatalf("a k-NN of every point under protocol %v found %d distinct IDs %v, a full-cover range search %d %v",
				proto, len(knn), knn, len(ids), ids)
		}
	}
}

// FuzzPartitionHandle delivers decoded requests to a live partition.
// An input is a partition ordinal, a wire kind and a body: the body is
// decoded by the kind table's decoder, as a TCP fabric decodes it, and
// a request that decodes goes to that partition's handler in a fresh
// three-partition tree. Nothing may panic — not the delivery, nor a
// full-cover range search and a snapshot of the tree after it — and a
// request the partition refuses leaves the tree's Len and the
// partition's snapshot bytes as they were. After an accepted one every
// box is exact (checkPartitionBoxes), every partition counts what its
// buckets hold, a full-cover range search finds every point the tree
// reaches, and a k-NN of every point under either protocol finds the
// same IDs (checkCounts). The seeds are TestProtocolTable's
// samples, sent to every partition as they are and with every node they
// name past the end of the arena.
func FuzzPartitionHandle(f *testing.F) {
	for _, m := range protocolSamples() {
		for _, v := range []any{m, withNodesPastEnd(m)} {
			msg, ok := v.(cluster.Message)
			if !ok {
				continue
			}
			for part := range byte(3) {
				in := column.Appender{part, msg.WireKind()}
				msg.AppendWire(&in)
				f.Add([]byte(in))
			}
		}
	}
	pts := fuzzPoints()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || kinds[data[1]] == nil {
			return
		}
		var d column.Decoder
		d.Reset(data[2:])
		req := kinds[data[1]](&d)
		if d.End() != nil {
			return
		}
		tr, err := New(fuzzConfig)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		ctx := context.Background()
		if err := tr.BulkLoad(ctx, pts); err != nil || tr.PartitionCount() != 3 {
			t.Fatalf("the fuzz tree: %d partitions, %v", tr.PartitionCount(), err)
		}
		p := tr.parts[int(data[0])%3]
		before, n := partitionBytes(t, p), tr.Len()
		_, err = p.handle(ctx, cluster.ClientID, req)
		if errors.Is(err, ErrRequestRefused) {
			if tr.Len() != n || !bytes.Equal(partitionBytes(t, p), before) {
				t.Fatalf("%T refused (%v), but the partition changed", req, err)
			}
		}
		if err == nil {
			checkPartitionBoxes(t, tr) // an accepted request keeps every box exact
			checkCounts(t, tr)
		}
		// The k-NN kernel's visit heap over whatever the delivery left,
		// under both protocols: after a refusal it may fail, never panic.
		for _, proto := range []Protocol{ProtocolSequential, ProtocolFanOut} {
			_, _, _ = tr.knnResolved(ctx, []float64{4, 4}, tr.Len(), proto, false, nil)
		}
		_, _ = tr.RangeSearch(ctx, []float64{4, 4}, math.MaxFloat64)
		_, _ = tr.Snapshot()
	})
}
