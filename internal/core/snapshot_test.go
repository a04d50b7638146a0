package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
// snapshot exercises tombstones, cross-partition edges and remote-box
// caches, not just a pristine bulk layout.
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
	if err := snap.Validate(); err != nil {
		t.Fatalf("fresh snapshot invalid: %v", err)
	}
	return snap
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
// at a time; every mutation must be rejected with ErrSnapshotCorrupt.
func TestSnapshotValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(t *testing.T, s *TreeSnapshot)
	}{
		{"wrong-format", func(t *testing.T, s *TreeSnapshot) { s.Format = 99 }},
		{"zero-dim", func(t *testing.T, s *TreeSnapshot) { s.Dim = 0 }},
		{"huge-dim", func(t *testing.T, s *TreeSnapshot) { s.Dim = 1 << 20 }},
		{"no-parts", func(t *testing.T, s *TreeSnapshot) { s.Parts = nil }},
		{"empty-root", func(t *testing.T, s *TreeSnapshot) { s.Parts[0].Nodes = nil }},
		{"size-mismatch", func(t *testing.T, s *TreeSnapshot) { s.Size++ }},
		{"points-mismatch", func(t *testing.T, s *TreeSnapshot) { s.Parts[0].Points++; s.Size++ }},
		{"dangling-child", func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return !n.Leaf && !n.Moved })
			s.Parts[pi].Nodes[ni].Left = kdtree.Ref{Part: 9999, Node: 0}
		}},
		{"leaf-and-tombstone", func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return n.Leaf })
			s.Parts[pi].Nodes[ni].Moved = true
		}},
		{"routing-with-bucket", func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return !n.Leaf && !n.Moved })
			s.Parts[pi].Nodes[ni].Slots = []int32{0}
		}},
		{"split-dim-out-of-range", func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return !n.Leaf && !n.Moved })
			s.Parts[pi].Nodes[ni].SplitDim = 7
		}},
		{"inexact-leaf-box", func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return n.Leaf && len(n.Slots) > 0 })
			lo, _ := s.Parts[pi].Box(int32(ni))
			lo[0] -= 1
		}},
		{"inexact-routing-box", func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return !n.Leaf && !n.Moved })
			_, hi := s.Parts[pi].Box(int32(ni))
			hi[0] += 1
		}},
		{"wrong-point-dims", func(t *testing.T, s *TreeSnapshot) {
			pi, _ := findNode(t, s, func(n *kdtree.Node) bool { return n.Leaf && len(n.Slots) > 0 })
			s.Parts[pi].Coords = s.Parts[pi].Coords[:len(s.Parts[pi].Coords)-1]
		}},
		{"bucket-out-of-column-order", func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return n.Leaf && len(n.Slots) > 1 })
			b := s.Parts[pi].Nodes[ni].Slots
			b[0], b[1] = b[1], b[0]
		}},
		{"orphan-node", func(t *testing.T, s *TreeSnapshot) {
			// A reachable-looking leaf nobody points at: the bucket is
			// counted so Points/Size stay consistent, making
			// reachability the only detector.
			ps := &s.Parts[0]
			ps.Nodes = append(ps.Nodes, kdtree.Node{Leaf: true, Slots: []int32{int32(len(ps.IDs))}})
			ps.IDs = append(ps.IDs, 999999)
			ps.Coords = append(ps.Coords, 5, 5, 5)
			ps.Boxes = append(ps.Boxes, 5, 5, 5, 5, 5, 5)
			ps.Points++
			s.Size++
		}},
		{"cycle", func(t *testing.T, s *TreeSnapshot) {
			pi, ni := findNode(t, s, func(n *kdtree.Node) bool { return !n.Leaf && !n.Moved })
			s.Parts[pi].Nodes[ni].Right = kdtree.Ref{} // back to the root
		}},
		{"stale-remote-box", func(t *testing.T, s *TreeSnapshot) {
			var found bool
			for pi := range s.Parts {
				if len(s.Parts[pi].Remote) > 0 {
					s.Parts[pi].Remote[0].Hi[0] += 1
					found = true
					break
				}
			}
			if !found {
				t.Skip("no remote-box entries in this layout")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := mustSnap(t)
			tc.mut(t, snap)
			err := snap.Validate()
			if err == nil {
				t.Fatal("corrupted snapshot validated")
			}
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("error %v does not wrap ErrSnapshotCorrupt", err)
			}
			if _, rerr := RestoreTree(Config{Dim: 3}, snap); rerr == nil {
				t.Fatal("RestoreTree accepted a corrupt snapshot")
			}
		})
	}
}

// TestSnapshotValidateDeepChain: validation must walk a maximally deep
// (chain-shaped) snapshot iteratively — a recursive walk would
// overflow the stack long before 200k levels.
func TestSnapshotValidateDeepChain(t *testing.T) {
	const depth = 200_000
	ps := PartitionSnapshot{Arena: kdtree.Arena{Dim: 1}, Points: depth + 1}
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
	snap := &TreeSnapshot{Format: SnapshotFormat, Dim: 1, Size: depth + 1, Parts: []PartitionSnapshot{ps}}
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

// TestDecodeSnapshotCorrupt: garbage, truncated encodings, flipped
// bytes, a header naming another format (format 1 was the gob stream)
// or an out-of-range dimension come back as ErrSnapshotCorrupt, never a
// panic.
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
	bad := map[string][]byte{
		"format 1":    patchHeader(b, 1, uint32(snap.Dim)),
		"format 41":   patchHeader(b, 41, uint32(snap.Dim)),
		"dimension 0": patchHeader(b, SnapshotFormat, 0),
		"dimension 2": patchHeader(b, SnapshotFormat, 2),
		"huge dim":    patchHeader(b, SnapshotFormat, 1<<31),
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
// remote-cache box, exactly.
func TestSnapshotDecodeRebuildsBoxes(t *testing.T) {
	const n, dim = 3000, 6
	r := rand.New(rand.NewSource(107))
	pts := clusteredPoints(r, n, dim, 5)
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
					if err := got.Validate(); err != nil {
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

// sameSnapshot requires got to be want, node for node and box for box.
func sameSnapshot(t *testing.T, got, want *TreeSnapshot) {
	t.Helper()
	if got.Format != want.Format || got.Dim != want.Dim || got.Size != want.Size || len(got.Parts) != len(want.Parts) {
		t.Fatalf("header (%d, %d, %d, %d parts), want (%d, %d, %d, %d parts)",
			got.Format, got.Dim, got.Size, len(got.Parts), want.Format, want.Dim, want.Size, len(want.Parts))
	}
	remotes := 0
	for pi := range want.Parts {
		g, w := &got.Parts[pi], &want.Parts[pi]
		if g.Points != w.Points || len(g.Nodes) != len(w.Nodes) || len(g.Remote) != len(w.Remote) {
			t.Fatalf("partition %d: (%d points, %d nodes, %d remote), want (%d, %d, %d)",
				pi, g.Points, len(g.Nodes), len(g.Remote), w.Points, len(w.Nodes), len(w.Remote))
		}
		for ni := range w.Nodes {
			a, b := g.Nodes[ni], w.Nodes[ni]
			alo, ahi := g.Box(int32(ni))
			blo, bhi := w.Box(int32(ni))
			if !boxEqual(alo, ahi, blo, bhi) {
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
		}
		for ei, e := range w.Remote {
			if a := g.Remote[ei]; a.Ref != e.Ref || !boxEqual(a.Lo, a.Hi, e.Lo, e.Hi) {
				t.Fatalf("partition %d remote entry %d: %+v, want %+v", pi, ei, a, e)
			}
			remotes++
		}
	}
	if len(want.Parts) > 1 && remotes == 0 {
		t.Fatal("a multi-partition tree with no remote-box entries: the cache went untested")
	}
}

// FuzzPartitionRestore: arbitrary bytes through decode → validate →
// restore must never panic, OOM, or install a tree that breaks on
// queries; every rejection is ErrSnapshotCorrupt.
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
		// A snapshot that validates must restore and answer queries.
		// Bound the work: a huge (but internally consistent) synthetic
		// snapshot is a resource test, not a correctness one.
		if len(s.Parts) > 16 || s.Size > 1<<16 {
			return
		}
		restored, err := RestoreTree(Config{BucketSize: 4}, s)
		if err != nil {
			t.Fatalf("validated snapshot failed to restore: %v", err)
		}
		defer restored.Close()
		q := make([]float64, s.Dim)
		if _, err := restored.KNearest(context.Background(), q, 3); err != nil {
			t.Fatalf("restored tree failed a query: %v", err)
		}
	})
}
