package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/column"
	"semtree/internal/kdtree"
)

// buildChurnedTree builds a multi-partition tree the hard way — bulk
// load, then single inserts and the spills they trigger — so its
// snapshot exercises the links of relocated leaves as well as a trunk's,
// not just a pristine bulk layout.
func buildChurnedTree(t *testing.T, r *rand.Rand) (*Tree, []kdtree.Point) {
	t.Helper()
	const dim = 4
	pts := clusteredPoints(r, 1500, dim, 4)
	// Round-robin spills scatter the leaves: the most cross-partition
	// edges.
	tr := mustTreePlaced(t, Config{
		Dim: dim, BucketSize: 8,
		PartitionCapacity: 120, MaxPartitions: 6,
	}, roundRobin)
	if err := tr.BulkLoad(context.Background(), pts[:1000]); err != nil {
		t.Fatal(err)
	}
	extra := pts[1000:]
	if err := tr.InsertAll(extra, 2); err != nil {
		t.Fatal(err)
	}
	if tr.PartitionCount() < 2 {
		t.Fatalf("tree did not distribute: %d partitions", tr.PartitionCount())
	}
	return tr, pts
}

// TestSnapshotRestoreByteIdentical is the restore contract: encode,
// decode, restore on a fresh fabric — every k-NN and range query over
// the restored tree answers byte-identically to the original, across
// both protocols, and the restored region metadata is exact.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	tr, pts := buildChurnedTree(t, r)

	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTree(Config{Dim: 1, BucketSize: 8, PartitionCapacity: 120, MaxPartitions: 2}, decoded)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restored.Close() })

	if restored.Len() != tr.Len() {
		t.Fatalf("restored %d points, want %d", restored.Len(), tr.Len())
	}
	if restored.PartitionCount() != tr.PartitionCount() {
		t.Fatalf("restored %d partitions, want %d", restored.PartitionCount(), tr.PartitionCount())
	}
	checkPartitionBoxes(t, restored)

	for _, proto := range []Protocol{ProtocolSequential, ProtocolFanOut} {
		os := tr.NewScheduler(SchedulerConfig{Protocol: proto})
		rs := restored.NewScheduler(SchedulerConfig{Protocol: proto})
		for trial := 0; trial < 25; trial++ {
			q := clusteredPoints(r, 1, 4, 4)[0].Coords
			a, _, err := os.KNearest(context.Background(), q, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := rs.KNearest(context.Background(), q, 7)
			if err != nil {
				t.Fatal(err)
			}
			sameNeighbors(t, b, a, "%v knn trial %d", proto, trial)
			if want := bruteKNN(pts, q, 7); !sameIDSets(b, want) {
				t.Fatalf("%v trial %d: restored tree disagrees with brute force", proto, trial)
			}
		}
	}
	for trial := 0; trial < 15; trial++ {
		q := clusteredPoints(r, 1, 4, 4)[0].Coords
		a, err := tr.RangeSearch(context.Background(), q, 6)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.RangeSearch(context.Background(), q, 6)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, b, a, "range trial %d", trial)
	}

	// The restored fleet stays live: it keeps absorbing inserts and
	// answering correctly afterwards.
	more := clusteredPoints(r, 100, 4, 4)
	for i := range more {
		more[i].ID = uint64(len(pts) + i)
	}
	if err := restored.InsertAll(more, 1); err != nil {
		t.Fatal(err)
	}
	all := append(append([]kdtree.Point(nil), pts...), more...)
	q := clusteredPoints(r, 1, 4, 4)[0].Coords
	got, err := restored.KNearest(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteKNN(all, q, 5); !sameIDSets(got, want) {
		t.Fatal("restored tree wrong after post-restore inserts")
	}
}

// TestRestoreTwiceFromOneSnapshot: trees restored from one snapshot
// adopt its point blocks and slot arrays (kdtree.Arena.Restore), so
// each must write what it is given after into storage of its own. The
// snapshot here has slack past every block's end and every leaf's
// slots, as one carved without caps has: a tree that appended in place
// would write its points over the other tree's, and a leaf's new slot
// over its neighbour's first. Both trees take different inserts and
// answer as the flat scan over their own points, and the snapshot
// encodes to the same bytes afterwards.
func TestRestoreTwiceFromOneSnapshot(t *testing.T) {
	const n, more, dim = 600, 200, 3
	r := rand.New(rand.NewSource(97))
	pts := randomPoints(r, n+2*more, dim)
	for i := range pts {
		pts[i].ID = uint64(i)
	}
	src := mustTree(t, Config{Dim: dim, BucketSize: 8})
	if err := src.BulkLoad(context.Background(), pts[:n]); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ps := &snap.Parts[0]
	ps.Coords = append(make([]float64, 0, 2*len(ps.Coords)), ps.Coords...)
	ps.IDs = append(make([]uint64, 0, 2*len(ps.IDs)), ps.IDs...)
	slots := make([]int32, len(ps.IDs), 2*len(ps.IDs))
	at := 0
	for i := range ps.Nodes {
		if k := len(ps.Nodes[i].Slots); k > 0 {
			for j := range k {
				slots[at+j] = int32(at + j)
			}
			ps.Nodes[i].Slots = slots[at : at+k] // its capacity runs on into the next leaf's
			at += k
		}
	}
	var before bytes.Buffer
	if err := EncodeSnapshot(&before, snap); err != nil {
		t.Fatal(err)
	}

	trees := make([]*Tree, 2)
	for i := range trees {
		if trees[i], err = RestoreTree(Config{BucketSize: 8}, snap); err != nil {
			t.Fatal(err)
		}
		defer trees[i].Close()
	}
	for i, tr := range trees {
		if err := tr.InsertAll(pts[n+i*more:n+(i+1)*more], 1); err != nil {
			t.Fatal(err)
		}
	}
	for i, tr := range trees {
		own := append(pts[:n:n], pts[n+i*more:n+(i+1)*more]...)
		for q := range 30 {
			query := randomPoints(r, 1, dim)[0].Coords
			got, err := tr.KNearest(context.Background(), query, 6)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteKNN(own, query, 6); !sameIDSets(got, want) || !sameDistances(got, want) {
				t.Fatalf("tree %d query %d: %v, the flat scan %v", i, q, got, want)
			}
			gotR, err := tr.RangeSearch(context.Background(), query, 15)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteRange(own, query, 15); !sameIDSets(gotR, want) {
				t.Fatalf("tree %d range %d: %d points, the flat scan %d", i, q, len(gotR), len(want))
			}
		}
	}
	var after bytes.Buffer
	if err := EncodeSnapshot(&after, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), before.Bytes()) {
		t.Fatal("restoring and writing two trees moved the bytes of the snapshot they came from")
	}
}

// TestSnapshotRequiresQuiescence: a link to a partition the capture did
// not list — one a spill created after it began — refuses the snapshot
// instead of serializing a torn state.
func TestSnapshotRequiresQuiescence(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	tr := mustTree(t, Config{Dim: 3, BucketSize: 4})
	if err := tr.InsertAll(randomPoints(r, 50, 3), 1); err != nil {
		t.Fatal(err)
	}
	p := tr.rootPartition()
	p.mu.Lock()
	left := p.Nodes[0].Left
	p.Nodes[0].Left = kdtree.Ref{Part: 99, Node: 0}
	p.mu.Unlock()
	if _, err := tr.Snapshot(); err == nil {
		t.Fatal("snapshot linking an unlisted partition accepted")
	}
	p.mu.Lock()
	p.Nodes[0].Left = left
	p.mu.Unlock()
	if _, err := tr.Snapshot(); err != nil {
		t.Fatalf("quiesced snapshot refused: %v", err)
	}
}

// mustSnap builds a small valid snapshot to corrupt.
func mustSnap(t *testing.T) *TreeSnapshot {
	t.Helper()
	r := rand.New(rand.NewSource(101))
	tr := mustTree(t, Config{
		Dim: 3, BucketSize: 4,
		PartitionCapacity: 40, MaxPartitions: 4,
	})
	if err := tr.BulkLoad(context.Background(), clusteredPoints(r, 400, 3, 3)); err != nil {
		t.Fatal(err)
	}
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmp.Or(snap.Validate(), validArenas(snap)); err != nil {
		t.Fatalf("fresh snapshot invalid: %v", err)
	}
	return snap
}

// validArenas makes on every part of s the checks a restore leaves to
// FitBoxes and to the partition adopting the part: the snapshot layout
// (layout), the kernel's (kdtree.Arena.Fit) and links leading down the
// partition DAG (linksDown). A test holds a snapshot to them beside
// Validate without restoring it; a snapshot both pass must restore.
func validArenas(s *TreeSnapshot) error {
	for pi := range s.Parts {
		a := &s.Parts[pi]
		err := layout(a, s.Dim)
		if err == nil {
			err = a.Fit(s.Dim)
		}
		if err == nil {
			err = linksDown(a, int32(pi))
		}
		if err != nil {
			return corrupt("partition %d: %v", pi, err)
		}
	}
	return nil
}

// findNode locates the first node matching pred, for targeted
// corruption.
func findNode(t *testing.T, s *TreeSnapshot, pred func(n *kdtree.Node) bool) (int, int) {
	t.Helper()
	for pi := range s.Parts {
		for ni := range s.Parts[pi].Nodes {
			if pred(&s.Parts[pi].Nodes[ni]) {
				return pi, ni
			}
		}
	}
	t.Fatal("no node matches predicate")
	return 0, 0
}

// TestSnapshotValidateRejects corrupts a valid snapshot one invariant
// at a time; RestoreTree must refuse every mutation with
// ErrSnapshotCorrupt, saying so once. Each check has one owner on that
// path: FitBoxes the snapshot layout of an arena, Validate the graph
// joining the arenas, and the partition adopting an arena the arena
// itself (kdtree.Arena.Fit, linksDown). Validate must refuse the graph
// rows on its own.
func TestSnapshotValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		graph bool
		mut   func(t *testing.T, s *TreeSnapshot)
	}{
		{"zero-dim", true, func(t *testing.T, s *TreeSnapshot) { s.Dim = 0 }},
		{"huge-dim", true, func(t *testing.T, s *TreeSnapshot) { s.Dim = 1 << 20 }},
		{"no-parts", true, func(t *testing.T, s *TreeSnapshot) { s.Parts = nil }},
		{"empty-root", true, func(t *testing.T, s *TreeSnapshot) { s.Parts[0].Nodes = nil }},
		{"dangling-child", true, func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return !n.Leaf && !n.Moved })
			s.Parts[pi].Nodes[ni].Left = kdtree.Ref{Part: 9999, Node: 0}
		}},
		{"leaf-and-tombstone", false, func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return n.Leaf })
			s.Parts[pi].Nodes[ni].Moved = true
		}},
		{"leaf-and-link", false, func(t *testing.T, s *TreeSnapshot) {
			// A link given the leaf bit, with no bucket: the graph and
			// the layout are whole, and k-NN would take it for a leaf.
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return n.Moved })
			s.Parts[pi].Nodes[ni].Leaf = true
		}},
		{"routing-with-bucket", false, func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return !n.Leaf && !n.Moved })
			s.Parts[pi].Nodes[ni].Slots = []int32{0}
		}},
		{"split-dim-out-of-range", false, func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return !n.Leaf && !n.Moved })
			s.Parts[pi].Nodes[ni].SplitDim = 7
		}},
		{"nan-split", false, func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return !n.Leaf && !n.Moved })
			s.Parts[pi].Nodes[ni].SplitVal = math.NaN()
		}},
		{"infinite-split", false, func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return !n.Leaf && !n.Moved })
			s.Parts[pi].Nodes[ni].SplitVal = math.Inf(1)
		}},
		{"routing-child-leaves-partition", true, func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return n.Moved })
			fwd := s.Parts[pi].Nodes[ni].Fwd
			pr, nr := findNode(t, s, func(n *kdtree.Node) bool {
				return !n.Leaf && !n.Moved && (n.Left == kdtree.Ref{Part: int32(pi), Node: int32(ni)} || n.Right == kdtree.Ref{Part: int32(pi), Node: int32(ni)})
			})
			if r := &s.Parts[pr].Nodes[nr]; r.Left.Node == int32(ni) {
				r.Left = fwd // the parent edge itself the link: the form a link no longer takes
			} else {
				r.Right = fwd
			}
		}},
		{"arena-of-another-partition", true, func(t *testing.T, s *TreeSnapshot) {
			// A data partition's arena under another partition's Self,
			// its routing children renamed with it: each is local to its
			// arena, none names a node of the snapshot.
			ps := &s.Parts[len(s.Parts)-1]
			ps.Self = int32(len(s.Parts)) + 3
			for i := range ps.Nodes {
				if n := &ps.Nodes[i]; !n.Leaf && !n.Moved {
					n.Left.Part, n.Right.Part = ps.Self, ps.Self
				}
			}
		}},
		{"link-into-own-partition", true, func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return n.Moved })
			s.Parts[pi].Nodes[ni].Fwd = kdtree.Ref{Part: int32(pi), Node: 0}
		}},
		{"wrong-point-dims", false, func(t *testing.T, s *TreeSnapshot) {
			pi, _ := findNode(t, s, func(n *kdtree.Node) bool { return n.Leaf && len(n.Slots) > 0 })
			s.Parts[pi].Coords = s.Parts[pi].Coords[:len(s.Parts[pi].Coords)-1]
		}},
		{"bucket-out-of-column-order", false, func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return n.Leaf && len(n.Slots) > 1 })
			b := s.Parts[pi].Nodes[ni].Slots
			b[0], b[1] = b[1], b[0]
		}},
		{"orphan-node", true, func(t *testing.T, s *TreeSnapshot) {
			// A reachable-looking leaf nobody points at, its point in the
			// blocks: reachability is the only detector.
			ps := &s.Parts[0]
			ps.Nodes = append(ps.Nodes, kdtree.Node{Leaf: true, Slots: []int32{int32(len(ps.IDs))}})
			ps.IDs = append(ps.IDs, 999999)
			ps.Coords = append(ps.Coords, 5, 5, 5)
			ps.Boxes = append(ps.Boxes, 5, 5, 5, 5, 5, 5)
		}},
		{"cycle", true, func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return !n.Leaf && !n.Moved })
			s.Parts[pi].Nodes[ni].Right = kdtree.Ref{} // back to the root
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := mustSnap(t)
			tc.mut(t, snap)
			if err := snap.Validate(); tc.graph && !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("Validate: %v, want ErrSnapshotCorrupt", err)
			}
			if err := validArenas(snap); !tc.graph && !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("validArenas: %v, want ErrSnapshotCorrupt", err)
			}
			tr, err := RestoreTree(Config{Dim: 3}, snap)
			if err == nil {
				tr.Close()
				t.Fatal("RestoreTree accepted a corrupt snapshot")
			}
			if !errors.Is(err, ErrSnapshotCorrupt) || strings.Count(err.Error(), "snapshot corrupt") != 1 {
				t.Fatalf("RestoreTree: %v, want ErrSnapshotCorrupt said once", err)
			}
		})
	}
}

// TestSnapshotValidateDeepChain: validation must walk a maximally deep
// (chain-shaped) snapshot iteratively — a recursive walk would
// overflow the stack long before 200k levels.
func TestSnapshotValidateDeepChain(t *testing.T) {
	const depth = 200_000
	ps := kdtree.Arena{Dim: 1}
	// Node 2i is the routing spine; 2i+1 the left leaf; the last spine
	// slot is a leaf. Every leaf holds one point at x = its level, so
	// all boxes are computable in one pass from the bottom up.
	leaf := func(v float64) {
		ps.Nodes = append(ps.Nodes, kdtree.Node{Leaf: true, Slots: []int32{int32(len(ps.IDs))}})
		ps.IDs = append(ps.IDs, uint64(v))
		ps.Coords = append(ps.Coords, v)
		ps.Boxes = append(ps.Boxes, v, v)
	}
	for i := 0; i < depth; i++ {
		ps.Nodes = append(ps.Nodes, kdtree.Node{ // spine routing node
			SplitDim: 0, SplitVal: float64(i),
			Left:  kdtree.Ref{Node: int32(2*i + 1)},
			Right: kdtree.Ref{Node: int32(2*i + 2)},
		})
		ps.Boxes = append(ps.Boxes, float64(i), depth)
		leaf(float64(i))
	}
	leaf(depth) // chain terminator
	snap := &TreeSnapshot{Dim: 1, Parts: []kdtree.Arena{ps}}
	if err := snap.Validate(); err != nil {
		t.Fatalf("deep chain rejected: %v", err)
	}
	// And the corrupt variant — a cycle closing at the very bottom —
	// must come back as a typed error, not a stack overflow.
	snap.Parts[0].Nodes[2*(depth-1)].Right = kdtree.Ref{}
	err := snap.Validate()
	if err == nil || !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("deep cycle: err = %v, want ErrSnapshotCorrupt", err)
	}
}

// patchHeader returns a copy of an EncodeSnapshot stream with its
// header's format and dimension replaced, checksum recomputed.
func patchHeader(b []byte, format byte, dim uint32) []byte {
	out := append([]byte(nil), b...)
	h := out[:column.HeaderSize]
	h[len(column.Magic)] = format
	binary.LittleEndian.PutUint32(h[len(column.Magic)+1:], dim)
	binary.LittleEndian.PutUint32(h[column.HeaderSize-4:], crc32.Checksum(h[:column.HeaderSize-4], crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// patchColumn returns a copy of a column stream with the payload of
// its k-th column (0 is the first after the header) replaced by what
// patch makes of it, framed again with its checksum recomputed.
func patchColumn(b []byte, k int, patch func(payload []byte) []byte) []byte {
	out := slices.Clone(b[:column.HeaderSize])
	for i, rest := 0, b[column.HeaderSize:]; len(rest) > 0; i++ {
		n, w := binary.Uvarint(rest)
		payload := rest[w : w+int(n)]
		rest = rest[w+int(n)+4:]
		if i == k {
			payload = patch(payload)
		}
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	}
	return out
}

// TestDecodeSnapshotCorrupt: garbage, truncated encodings, flipped
// bytes, a header naming another format (format 1 was the gob stream)
// or an out-of-range dimension, a tree column whose point count is not
// its parts' and a node column whose count is not its buckets' come
// back as ErrSnapshotCorrupt, never a panic.
func TestDecodeSnapshotCorrupt(t *testing.T) {
	if _, err := DecodeSnapshot(strings.NewReader("not a snapshot")); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("garbage: %v", err)
	}
	snap := mustSnap(t)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := DecodeSnapshot(bytes.NewReader(patchHeader(b, SnapshotFormat, uint32(snap.Dim)))); err != nil {
		t.Fatalf("re-patched header with the same values: %v", err)
	}
	if _, err := DecodeSnapshot(bytes.NewReader(patchColumn(b, 0, slices.Clone))); err != nil {
		t.Fatalf("re-framed tree column with the same payload: %v", err)
	}
	bad := map[string][]byte{
		"format 1":    patchHeader(b, 1, uint32(snap.Dim)),
		"format 41":   patchHeader(b, 41, uint32(snap.Dim)),
		"dimension 0": patchHeader(b, SnapshotFormat, 0),
		"dimension 2": patchHeader(b, SnapshotFormat, 2),
		"huge dim":    patchHeader(b, SnapshotFormat, 1<<31),
		// The tree column opens with the points its parts hold, a varint,
		// and each node column with its partition's bucket total.
		"tree size one past its parts": patchColumn(b, 0, func(c []byte) []byte {
			v, k := binary.Varint(c)
			return append(binary.AppendVarint(nil, v+1), c[k:]...)
		}),
		"node column count one past its buckets": patchColumn(b, 1, func(c []byte) []byte {
			v, k := binary.Uvarint(c)
			return append(binary.AppendUvarint(nil, v+1), c[k:]...)
		}),
	}
	for cut := range len(b) {
		bad[fmt.Sprintf("cut at %d", cut)] = b[:cut]
	}
	for i := range b {
		flipped := append([]byte(nil), b...)
		flipped[i] ^= 0xa5
		bad[fmt.Sprintf("byte %d flipped", i)] = flipped
	}
	for name, in := range bad {
		if _, err := DecodeSnapshot(bytes.NewReader(in)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestSnapshotDecodeRebuildsBoxes: boxes are encoded neither in a file
// nor on the fabric, and lose nothing. For insert-grown, bulk-loaded
// and rebalanced trees on 1, 3 and 9 partitions, the tree grown over
// cluster.NewTCP() — every install, snapshot and restore rebuilding its
// boxes on receipt — has the snapshot of the tree grown in process,
// where nothing is encoded; and for both, DecodeSnapshot(
// EncodeSnapshot(s)) is s. The same is every node (state, split, links,
// bucket IDs and coordinate bits), every node box and every
// remote-cache box, exactly. A bulk load whose splits fall at zero
// among points of both zero signs keeps each split's sign bit: a
// message writes every split value raw, and the file leaves out only
// one whose bits its reader's fitted box holds.
func TestSnapshotDecodeRebuildsBoxes(t *testing.T) {
	const n, dim = 3000, 6
	r := rand.New(rand.NewSource(107))
	pts := clusteredPoints(r, n, dim, 5)
	zeros := make([]kdtree.Point, n) // a fifth at ±0 in dimension 0, the widest
	for i := range zeros {
		c := make([]float64, dim)
		for d := range c {
			c[d] = r.Float64()
		}
		switch k := r.Intn(5); {
		case k < 2:
			c[0] = -1 - 1000*c[0]
		case k < 4:
			c[0] = 1 + 1000*c[0]
		default:
			c[0] = math.Copysign(0, c[0]-0.5)
		}
		zeros[i] = kdtree.Point{ID: uint64(i), Coords: c}
	}
	grow := map[string]func(t *testing.T, tr *Tree){
		"insert": func(t *testing.T, tr *Tree) {
			if err := tr.InsertAll(pts, 1); err != nil {
				t.Fatal(err)
			}
		},
		"bulk": func(t *testing.T, tr *Tree) {
			if err := tr.BulkLoad(context.Background(), pts); err != nil {
				t.Fatal(err)
			}
		},
		"bulk at ±0": func(t *testing.T, tr *Tree) {
			if err := tr.BulkLoad(context.Background(), zeros); err != nil {
				t.Fatal(err)
			}
			if zeroTies(liveSnapshot(t, tr)) == 0 {
				t.Fatal("no split at zero over a box topping out at zero: the case checks nothing")
			}
		},
		"rebalanced": func(t *testing.T, tr *Tree) {
			if err := tr.BulkLoad(context.Background(), pts[:n/2]); err != nil {
				t.Fatal(err)
			}
			if err := tr.InsertAll(pts[n/2:], 1); err != nil {
				t.Fatal(err)
			}
			if err := tr.Rebalance(); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, g := range grow {
		for _, m := range []int{1, 3, 9} {
			t.Run(fmt.Sprintf("%s/%d", name, m), func(t *testing.T) {
				var snaps []*TreeSnapshot // in process, then over TCP
				for _, fabric := range []cluster.Fabric{cluster.NewInProc(cluster.InProcOptions{}), cluster.NewTCP()} {
					defer fabric.Close()
					cfg := Config{Dim: dim, BucketSize: 8, MaxPartitions: m, Fabric: fabric}
					if m > 1 {
						cfg.PartitionCapacity = n / (m - 1)
					}
					tr := mustTree(t, cfg)
					g(t, tr)
					if tr.PartitionCount() != m {
						t.Fatalf("%d partitions, want %d", tr.PartitionCount(), m)
					}
					snap := liveSnapshot(t, tr)
					var buf bytes.Buffer
					if err := EncodeSnapshot(&buf, snap); err != nil {
						t.Fatal(err)
					}
					got, err := DecodeSnapshot(&buf)
					if err != nil {
						t.Fatal(err)
					}
					if err := cmp.Or(got.Validate(), validArenas(got)); err != nil {
						t.Fatal(err)
					}
					sameSnapshot(t, got, snap)
					snaps = append(snaps, snap)
				}
				sameSnapshot(t, snaps[1], snaps[0])
			})
		}
	}
}

// zeroTies counts the routing nodes of s that split at zero where their
// left child's box tops out at zero.
func zeroTies(s *TreeSnapshot) int {
	k := 0
	for pi := range s.Parts {
		a := &s.Parts[pi]
		for i := range a.Nodes {
			if n := &a.Nodes[i]; !n.Leaf && !n.Moved && n.SplitVal == 0 {
				if top, ok := leftTop(a, n); ok && top == 0 {
					k++
				}
			}
		}
	}
	return k
}

// sameSnapshot requires got to be want, node for node and box for box.
func sameSnapshot(t *testing.T, got, want *TreeSnapshot) {
	t.Helper()
	if got.Dim != want.Dim || got.Len() != want.Len() || len(got.Parts) != len(want.Parts) {
		t.Fatalf("header (%d, %d, %d parts), want (%d, %d, %d parts)",
			got.Dim, got.Len(), len(got.Parts), want.Dim, want.Len(), len(want.Parts))
	}
	links := 0
	for pi := range want.Parts {
		g, w := &got.Parts[pi], &want.Parts[pi]
		if bucketPoints(g) != bucketPoints(w) || len(g.Nodes) != len(w.Nodes) {
			t.Fatalf("partition %d: (%d points, %d nodes), want (%d, %d)", pi, bucketPoints(g), len(g.Nodes), bucketPoints(w), len(w.Nodes))
		}
		for ni := range w.Nodes {
			a, b := g.Nodes[ni], w.Nodes[ni]
			alo, ahi := g.Box(int32(ni))
			blo, bhi := w.Box(int32(ni))
			if !slices.Equal(alo, blo) || !slices.Equal(ahi, bhi) {
				t.Fatalf("partition %d node %d: box [%v, %v], want [%v, %v]", pi, ni, alo, ahi, blo, bhi)
			}
			ab, bb := g.AppendBucket(nil, int32(ni)), w.AppendBucket(nil, int32(ni))
			if len(ab) != len(bb) {
				t.Fatalf("partition %d node %d: bucket of %d, want %d", pi, ni, len(ab), len(bb))
			}
			for i := range bb {
				if ab[i].ID != bb[i].ID || !slices.Equal(ab[i].Coords, bb[i].Coords) {
					t.Fatalf("partition %d node %d: point %d differs", pi, ni, i)
				}
			}
			if a.Leaf != b.Leaf || a.Moved != b.Moved || a.SplitDim != b.SplitDim ||
				math.Float64bits(a.SplitVal) != math.Float64bits(b.SplitVal) ||
				a.Fwd != b.Fwd || a.Left != b.Left || a.Right != b.Right {
				t.Fatalf("partition %d node %d: %+v, want %+v", pi, ni, a, b)
			}
			if b.Moved {
				links++
			}
		}
	}
	if len(want.Parts) > 1 && links == 0 {
		t.Fatal("a multi-partition tree with no link: the links' boxes went untested")
	}
}

// FuzzPartitionRestore: arbitrary bytes through decode → validate →
// restore must never panic, OOM, or install a tree that breaks on
// queries; every rejection is ErrSnapshotCorrupt. Validate checks the
// graph only, so a snapshot it passes may still hold an arena its
// partition refuses, which RestoreTree reports as corrupt too; one
// validArenas passes as well must restore.
func FuzzPartitionRestore(f *testing.F) {
	// Seeds: a real snapshot, a truncation of it, garbage, version skew,
	// two empty trees and a checksum mismatch.
	r := rand.New(rand.NewSource(103))
	tr, err := New(Config{Dim: 3, BucketSize: 4, PartitionCapacity: 40, MaxPartitions: 3})
	if err != nil {
		f.Fatal(err)
	}
	if err := tr.BulkLoad(context.Background(), clusteredPoints(r, 200, 3, 2)); err != nil {
		f.Fatal(err)
	}
	snap, err := tr.Snapshot()
	tr.Close()
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := EncodeSnapshot(&valid, snap); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte("go away"))
	f.Add(patchHeader(valid.Bytes(), 41, 3))
	// The states a reset restores: a root that is one empty leaf, alone
	// and beside an emptied data partition (Rebalance of an empty tree
	// allocates the budget and resets every partition).
	for _, m := range []int{1, 2} {
		empty, err := New(Config{Dim: 3, MaxPartitions: m})
		if err != nil {
			f.Fatal(err)
		}
		if err := empty.Rebalance(); err != nil {
			f.Fatal(err)
		}
		snap, err := empty.Snapshot()
		empty.Close()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, snap); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	crc := append([]byte(nil), valid.Bytes()...)
	crc[len(crc)-1] ^= 1 // the last column's checksum
	f.Add(crc)
	// The root's trunk with a routing child in another partition where
	// its link was: the form a cross-partition edge no longer takes, and
	// one the node column cannot hold — it writes no routing child's
	// partition — so the encoder refuses it.
	root := snap.Parts[0]
	root.Nodes = slices.Clone(root.Nodes)
	for i := range root.Nodes {
		if n := &root.Nodes[i]; !n.Leaf && !n.Moved && root.Nodes[n.Right.Node].Moved {
			n.Right = root.Nodes[n.Right.Node].Fwd
			break
		}
	}
	leaving := *snap
	leaving.Parts = append([]kdtree.Arena{root}, snap.Parts[1:]...)
	if err := EncodeSnapshot(io.Discard, &leaving); err == nil {
		f.Fatal("a routing child leaving its partition encoded")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrSnapshotCorrupt", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("validate error %v does not wrap ErrSnapshotCorrupt", err)
			}
			return
		}
		// Bound the work: a huge (but internally consistent) synthetic
		// snapshot is a resource test, not a correctness one.
		if len(s.Parts) > 16 || s.Len() > 1<<16 {
			return
		}
		whole := validArenas(s)
		restored, err := RestoreTree(Config{BucketSize: 4}, s)
		switch {
		case err != nil && whole == nil:
			t.Fatalf("a snapshot whose graph and arenas validate failed to restore: %v", err)
		case err != nil && !errors.Is(err, ErrSnapshotCorrupt):
			t.Fatalf("restore error %v does not wrap ErrSnapshotCorrupt", err)
		case err != nil:
			return
		case whole != nil:
			restored.Close()
			t.Fatalf("a snapshot with a refused arena restored: %v", whole)
		}
		// A snapshot that restores must answer queries.
		defer restored.Close()
		q := make([]float64, s.Dim)
		if _, err := restored.KNearest(context.Background(), q, 3); err != nil {
			t.Fatalf("restored tree failed a query: %v", err)
		}
	})
}

// TestReadColumnsRefusals: the partition columns of a three-node arena
// — a routing node split at its left leaf's top over two ascending
// leaves — read back through readColumns and the message path's box
// rebuild (rebuildBoxes), its split value set from the left leaf's
// fitted box; and each column no appendColumns writes is refused: a
// point count other than the bucket total, a leaf or a link marked
// split at its left child's top, a routing node marked ascending, a
// split at the top of an empty box or in a dimension the arena lacks, a
// raw split value where the box gives it, a raw NaN split value, an ID
// column under a Rice parameter but column.RiceParam's pick, an
// ascending bucket that wraps past 2^64, a bucket
// that never falls not marked ascending, and a byte or a set pad bit
// after the ID codes.
func TestReadColumnsRefusals(t *testing.T) {
	// nodes builds a node column: three nodes, the root's state and
	// split dimension, its raw split value if it is not at its left
	// child's top, and the leaves' states and bucket lengths.
	nodes := func(root byte, dim uint64, raw []float64, leaves [2][2]byte) []byte {
		c := binary.AppendUvarint(binary.AppendUvarint(nil, 3), 3)
		c = binary.AppendUvarint(append(c, root), dim)
		for _, v := range raw {
			c = binary.LittleEndian.AppendUint64(c, math.Float64bits(v))
		}
		c = binary.AppendVarint(binary.AppendVarint(c, 1), 2)
		for _, l := range leaves {
			c = append(c, l[0], l[1])
		}
		return c
	}
	// ids builds an ID column of codes under parameter k,
	// column.RiceParam's pick for k < 0.
	ids := func(k int, codes ...uint64) []byte {
		if k < 0 {
			var p column.RiceParam
			for _, v := range codes {
				p.Add(v)
			}
			k = p.K()
		}
		a := column.Appender{byte(k)}
		w := column.BitWriter{A: &a}
		for _, v := range codes {
			w.Rice(v, k)
		}
		w.Flush()
		return a
	}
	coords := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1))
	coords = binary.LittleEndian.AppendUint64(coords, math.Float64bits(2))
	coords = binary.LittleEndian.AppendUint64(coords, math.Float64bits(3))
	const leftMax, asc = stateLeftMax, stateLeaf | stateAscending
	sizes := [2][2]byte{{asc, 2}, {asc, 1}} // IDs 5, 9 at 1 and 2; ID 7 at 3
	valid := nodes(leftMax, 0, nil, sizes)
	validIDs := ids(-1, 5, 4, 7)
	read := func(nodes, ids []byte) (*TreeSnapshot, error) {
		cols := [][]byte{nodes, ids, coords}
		var d column.Decoder
		a, leftOut, err := readColumns(1, 0, func() (*column.Decoder, error) {
			d.Reset(cols[0])
			cols = cols[1:]
			return &d, nil
		}, true)
		s := &TreeSnapshot{Dim: 1, Parts: []kdtree.Arena{a}, leftOut: [][]bool{leftOut}}
		if err == nil {
			err = s.FitBoxes()
		}
		return s, err
	}
	s, err := read(valid, validIDs)
	if err != nil {
		t.Fatalf("the valid columns: %v", err)
	}
	if validIDs[0] != 2 {
		t.Fatalf("IDs 5, 9, 7 coded under Rice parameter %d, want 2", validIDs[0])
	}
	if a := &s.Parts[0]; a.Nodes[0].SplitVal != 2 || !slices.Equal(a.IDs, []uint64{5, 9, 7}) || s.leftOut != nil {
		t.Fatalf("read a split of %v over IDs %v (marks %v), want 2 over [5 9 7]", a.Nodes[0].SplitVal, a.IDs, s.leftOut)
	}
	padded := bytes.Clone(validIDs) // 12 bits of codes under k = 2: four pad bits
	padded[len(padded)-1] |= 0x80
	for name, c := range map[string][2][]byte{
		"a point count one past its buckets":     {append([]byte{4}, valid[1:]...), validIDs},
		"a raw NaN split":                        {nodes(0, 0, []float64{math.NaN()}, sizes), validIDs},
		"a leaf split at its left child's top":   {nodes(leftMax, 0, nil, [2][2]byte{{asc | leftMax, 2}, {asc, 1}}), validIDs},
		"a routing node marked ascending":        {nodes(leftMax|stateAscending, 0, nil, sizes), validIDs},
		"a split at the top of an empty box":     {nodes(leftMax, 0, nil, [2][2]byte{{asc, 0}, {asc, 3}}), ids(-1, 5, 4, 2)},
		"a split in a dimension the arena lacks": {nodes(leftMax, 1, nil, sizes), validIDs},
		"a raw split at the left child's top":    {nodes(0, 0, []float64{2}, sizes), validIDs},
		"a Rice parameter one past RiceParam's":  {valid, ids(int(validIDs[0])+1, 5, 4, 7)},
		"an ascending bucket wrapping past 2^64": {valid, ids(-1, 9, math.MaxUint64-3, 7)},
		"a bucket that never falls, unmarked":    {nodes(leftMax, 0, nil, [2][2]byte{{stateLeaf, 2}, {asc, 1}}), ids(-1, 5, 8, 7)},
		"a byte after the ID codes":              {valid, append(bytes.Clone(validIDs), 0)},
		"a set pad bit after the ID codes":       {valid, padded},
	} {
		if _, err := read(c[0], c[1]); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := read(valid, validIDs[:len(validIDs)-1]); err == nil {
		t.Error("ID codes cut short: accepted")
	}
	link := append(binary.AppendUvarint(binary.AppendUvarint(nil, 0), 1), stateMoved|leftMax, 1, 0)
	if _, err := read(link, []byte{0}); err == nil {
		t.Error("a link split at its left child's top: accepted")
	}

	// A partition message writes every split value raw: an installReq
	// of these columns, with no link box, refuses a split left out and
	// reads a raw one at its left child's top, which the file refuses.
	install := func(nodes []byte) (installReq, error) {
		a := column.Appender{0, 1, 0} // no link box floats, Dim 1, Self 0
		for _, c := range [][]byte{nodes, validIDs, coords} {
			a.Uvarint(uint64(len(c)))
			a = append(a, c...)
		}
		a.Varint(-1) // Entry
		a.Uvarint(1) // Seq
		var d column.Decoder
		d.Reset(a)
		m := readInstallReq(&d).(installReq)
		return m, d.End()
	}
	if _, err := install(valid); !errors.Is(err, errLeftOut) {
		t.Errorf("an installReq leaving a split value out: %v, want %v", err, errLeftOut)
	}
	m, err := install(nodes(0, 0, []float64{2}, sizes))
	if err != nil {
		t.Fatalf("an installReq split raw at its left child's top: %v", err)
	}
	if v := m.Frag.Nodes[0].SplitVal; math.Float64bits(v) != math.Float64bits(2) {
		t.Errorf("an installReq split raw at 2 read a split of %v", v)
	}
}
