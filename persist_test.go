package semtree

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/column"
	"semtree/internal/core"
	"semtree/internal/fastmap"
	"semtree/internal/kdtree"
	"semtree/internal/semdist"
	"semtree/internal/synth"
	"semtree/internal/triple"
)

func TestSaveLoadRoundTripIdenticalAnswers(t *testing.T) {
	g := synth.New(synth.Config{Seed: 61}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(600) {
		store.Add(tp, triple.Provenance{Doc: "D", Section: "S"})
	}
	orig, err := Build(store, Options{Seed: 5, Measure: "lin"})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()

	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer loaded.Close()

	if loaded.Len() != orig.Len() || loaded.Dims() != orig.Dims() {
		t.Fatalf("loaded len/dims = %d/%d, want %d/%d",
			loaded.Len(), loaded.Dims(), orig.Len(), orig.Dims())
	}
	qGen := synth.New(synth.Config{Seed: 62}, nil)
	for q := 0; q < 30; q++ {
		query := qGen.RandomTriple()
		ra, err := orig.Searcher(WithK(7)).Search(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := loaded.Searcher(WithK(7)).Search(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		a, b := ra.Matches, rb.Matches
		if len(a) != len(b) {
			t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Dist != b[i].Dist {
				t.Fatalf("query %d rank %d: distance %v vs %v (answers must be bit-identical)",
					q, i, a[i].Dist, b[i].Dist)
			}
		}
	}
	// Provenance survives.
	res, err := loaded.Searcher(WithK(1)).Search(context.Background(), store.MustGet(0))
	m := res.Matches
	if err != nil || len(m) != 1 {
		t.Fatalf("lookup after load: %v %v", m, err)
	}
	if m[0].Prov.Doc != "D" || m[0].Prov.Section != "S" {
		t.Fatalf("provenance lost: %+v", m[0].Prov)
	}
}

// TestLoadRestoresPartitionLayout: a snapshot carries the distributed
// tree itself, so Load restores the saved partition layout
// exactly — even when the load-time options ask for fewer partitions —
// and, under both k-NN protocols, answers with the saved index's IDs,
// distance bits and order, doing the same work. (To re-shape a
// reloaded fleet, Rebalance after Load.)
func TestLoadRestoresPartitionLayout(t *testing.T) {
	g := synth.New(synth.Config{Seed: 63}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(800) {
		store.Add(tp, triple.Provenance{})
	}
	orig, err := Build(store, Options{Seed: 6, PartitionCapacity: 100, MaxPartitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	if orig.PartitionCount() < 2 {
		t.Fatalf("build did not distribute: %d partitions", orig.PartitionCount())
	}
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.PartitionCount() != orig.PartitionCount() {
		t.Fatalf("restored %d partitions, saved tree had %d",
			loaded.PartitionCount(), orig.PartitionCount())
	}
	qGen := synth.New(synth.Config{Seed: 64}, nil)
	for _, proto := range []Protocol{ProtocolSequential, ProtocolFanOut} {
		a, b := orig.Searcher(WithK(5), WithProtocol(proto)), loaded.Searcher(WithK(5), WithProtocol(proto))
		for q := 0; q < 15; q++ {
			query := qGen.RandomTriple()
			ra, err := a.Search(context.Background(), query)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.Search(context.Background(), query)
			if err != nil {
				t.Fatal(err)
			}
			if len(ra.Matches) != len(rb.Matches) {
				t.Fatalf("%v query %d: %d matches, want %d", proto, q, len(rb.Matches), len(ra.Matches))
			}
			for i, x := range ra.Matches {
				if y := rb.Matches[i]; x.ID != y.ID || math.Float64bits(x.Dist) != math.Float64bits(y.Dist) {
					t.Fatalf("%v query %d rank %d: (%d, %v), want (%d, %v)", proto, q, i, y.ID, y.Dist, x.ID, x.Dist)
				}
			}
			sa, sb := ra.Stats, rb.Stats
			sa.Wall, sb.Wall = 0, 0
			if sa != sb {
				t.Fatalf("%v query %d: stats %+v, want %+v", proto, q, sb, sa)
			}
		}
	}
}

// TestReloadExactAfterIngest: an index on nine partitions that Insert
// and BulkAdd grew past its built prefix, then rebalanced, reloads
// exactly on both fabrics — over Save, Load, Save, Load every point
// keeps the coordinate bits it was saved with, the second Save writes
// the first one's bytes, and 64 queries under both protocols answer as
// the saved index does: IDs, distance bits and work. The ingested
// triples were embedded by MapInto, whose bits differ from the build's
// projection on some of them, so Load must project each triple as it
// was placed.
func TestReloadExactAfterIngest(t *testing.T) {
	const n = 3000
	triples := synth.New(synth.Config{Seed: 81, Actors: 200}, nil).Triples(n + 400)
	queries := synth.New(synth.Config{Seed: 82, Actors: 200}, nil).Triples(64)
	for _, fab := range []struct {
		name string
		new  func() cluster.Fabric
	}{
		{"tcp", func() cluster.Fabric { return cluster.NewTCP() }},
		{"inproc", func() cluster.Fabric { return cluster.NewInProc(cluster.InProcOptions{}) }},
	} {
		t.Run(fab.name, func(t *testing.T) {
			index := func(build func(opts Options) (*Index, error)) *Index {
				t.Helper()
				f := fab.new()
				ix, err := build(Options{Seed: 3, PartitionCapacity: n / 8, MaxPartitions: 9, Fabric: f})
				if err != nil {
					f.Close()
					t.Fatal(err)
				}
				t.Cleanup(func() {
					ix.Close()
					f.Close()
				})
				return ix
			}
			store := triple.NewStore()
			store.AddAll(triples[:n], triple.Provenance{Doc: "built"})
			orig := index(func(opts Options) (*Index, error) { return Build(store, opts) })
			for _, tp := range triples[n : n+100] {
				if _, err := orig.Insert(tp, triple.Provenance{Doc: "inserted"}); err != nil {
					t.Fatal(err)
				}
			}
			var items []BulkItem
			for _, tp := range triples[n+100:] {
				items = append(items, BulkItem{Triple: tp, Prov: triple.Provenance{Doc: "bulk"}})
			}
			if _, err := orig.BulkAdd(context.Background(), items); err != nil {
				t.Fatal(err)
			}
			if err := orig.Rebalance(); err != nil {
				t.Fatal(err)
			}
			if orig.PartitionCount() != 9 || orig.Len() != n+400 || orig.built != n {
				t.Fatalf("%d triples (%d built) on %d partitions, want %d (%d) on 9", orig.Len(), orig.built, orig.PartitionCount(), n+400, n)
			}
			saved := treeCoords(t, orig)

			var first, second bytes.Buffer
			if err := Save(&first, orig); err != nil {
				t.Fatal(err)
			}
			once := index(func(opts Options) (*Index, error) { return Load(bytes.NewReader(first.Bytes()), opts) })
			if err := Save(&second, once); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("Save of the loaded index wrote %d bytes that differ from the %d saved", second.Len(), first.Len())
			}
			twice := index(func(opts Options) (*Index, error) { return Load(&second, opts) })

			for round, ix := range []*Index{once, twice} {
				got := treeCoords(t, ix)
				if len(got) != len(saved) {
					t.Fatalf("load %d holds %d points, saved %d", round+1, len(got), len(saved))
				}
				for id, c := range saved {
					if !sameBits(got[id], c) {
						t.Fatalf("load %d: triple %d at %v, saved at %v", round+1, id, got[id], c)
					}
				}
				for _, proto := range []Protocol{ProtocolSequential, ProtocolFanOut} {
					want, have := orig.Searcher(WithK(7), WithProtocol(proto)), ix.Searcher(WithK(7), WithProtocol(proto))
					for qi, q := range queries {
						a, err := want.Search(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						b, err := have.Search(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						if len(a.Matches) != len(b.Matches) {
							t.Fatalf("load %d %v query %d: %d matches, saved index %d", round+1, proto, qi, len(b.Matches), len(a.Matches))
						}
						for i, x := range a.Matches {
							if y := b.Matches[i]; x.ID != y.ID || math.Float64bits(x.Dist) != math.Float64bits(y.Dist) {
								t.Fatalf("load %d %v query %d rank %d: (%d, %v), saved index (%d, %v)", round+1, proto, qi, i, y.ID, y.Dist, x.ID, x.Dist)
							}
						}
						a.Stats.Wall, b.Stats.Wall = 0, 0
						if a.Stats != b.Stats {
							t.Fatalf("load %d %v query %d: stats %+v, saved index %+v", round+1, proto, qi, b.Stats, a.Stats)
						}
					}
				}
			}
		})
	}
}

// TestSaveTwiceByteEqual: a snapshot's bytes are a function of the
// index. Consecutive Saves of one four-partition index are byte-equal.
// (Eight Saves, not two: a map of four entries iterates in the same
// order often enough for two to agree by luck, were any map order to
// reach the bytes.)
func TestSaveTwiceByteEqual(t *testing.T) {
	ix, _ := buildTestIndex(t, 800, Options{Seed: 6, PartitionCapacity: 200, MaxPartitions: 4})
	if ix.PartitionCount() != 4 {
		t.Fatalf("partitions = %d, want 4", ix.PartitionCount())
	}
	var first bytes.Buffer
	if err := Save(&first, ix); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		var again bytes.Buffer
		if err := Save(&again, ix); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("Save %d of an unchanged index differs from the first", i+1)
		}
	}
}

func TestSaveAfterInsert(t *testing.T) {
	store := triple.NewStore()
	g := synth.New(synth.Config{Seed: 65}, nil)
	for _, tp := range g.Triples(100) {
		store.Add(tp, triple.Provenance{})
	}
	ix, err := Build(store, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	probe := g.RandomTriple()
	if _, err := ix.Insert(probe, triple.Provenance{Doc: "late"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatalf("Save after Insert: %v", err)
	}
	loaded, err := Load(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != 101 {
		t.Fatalf("loaded %d triples, want 101", loaded.Len())
	}
	res, err := loaded.Searcher(WithK(1)).Search(context.Background(), probe)
	m := res.Matches
	if err != nil || len(m) != 1 || m[0].Dist != 0 {
		t.Fatalf("late insert not found after reload: %v %v", m, err)
	}
}

func TestSaveDetectsOutOfBandStoreWrites(t *testing.T) {
	store := triple.NewStore()
	g := synth.New(synth.Config{Seed: 66}, nil)
	for _, tp := range g.Triples(50) {
		store.Add(tp, triple.Provenance{})
	}
	ix, err := Build(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	store.Add(g.RandomTriple(), triple.Provenance{}) // bypasses the index
	var buf bytes.Buffer
	if err := Save(&buf, ix); err == nil {
		t.Fatal("Save should refuse a store with unindexed triples")
	}
}

// TestSaveConcurrentWithInsert: Save walks the store under the index
// lock and cross-checks the tree capture against it (size, and every
// tree ID below the entry count), so a Save racing Insert must either
// capture a consistent snapshot (which then loads cleanly) or fail with
// the explicit mutation error — never write a torn stream. Run under -race this also proves the capture itself is
// data-race free.
func TestSaveConcurrentWithInsert(t *testing.T) {
	g := synth.New(synth.Config{Seed: 69}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(150) {
		store.Add(tp, triple.Provenance{})
	}
	ix, err := Build(store, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	extra := g.Triples(120)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tp := range extra {
			if _, err := ix.Insert(tp, triple.Provenance{}); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()

	var good []bytes.Buffer
	for i := 0; i < 12; i++ {
		var buf bytes.Buffer
		if err := Save(&buf, ix); err != nil {
			// The only legal failure is the clean mutation report.
			if !bytes.Contains([]byte(err.Error()), []byte("mutated during Save")) {
				t.Fatalf("Save under churn failed with an unexpected error: %v", err)
			}
			continue
		}
		good = append(good, buf)
	}
	wg.Wait()

	// Every snapshot that Save reported as written must load cleanly and
	// be internally consistent; Load's own cross-checks (entries vs
	// tree size and IDs) would reject a torn capture.
	for i := range good {
		loaded, err := Load(&good[i], Options{})
		if err != nil {
			t.Fatalf("snapshot %d written under churn does not load: %v", i, err)
		}
		if n := loaded.Len(); n < 150 || n > 150+len(extra) {
			t.Fatalf("snapshot %d holds %d triples, want between 150 and %d", i, n, 150+len(extra))
		}
		loaded.Close()
	}

	// After quiescence Save must succeed and capture everything.
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatalf("Save after churn: %v", err)
	}
	loaded, err := Load(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != 150+len(extra) {
		t.Fatalf("final snapshot holds %d triples, want %d", loaded.Len(), 150+len(extra))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte("not a snapshot")), Options{})
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("garbage must return ErrSnapshotCorrupt, got %v", err)
	}
}

// stream is a version-9 snapshot cut at its frames: the fixed header,
// each column's payload, and the offset at which each column ends.
type stream struct {
	header []byte
	cols   [][]byte
	ends   []int
}

func splitStream(t testing.TB, b []byte) stream {
	t.Helper()
	s := stream{header: b[:column.HeaderSize]}
	for off := column.HeaderSize; off < len(b); {
		n, k := binary.Uvarint(b[off:])
		if k <= 0 || uint64(len(b)-off-k) < n+4 {
			t.Fatalf("malformed frame at offset %d", off)
		}
		s.cols = append(s.cols, b[off+k:off+k+int(n)])
		off += k + int(n) + 4
		s.ends = append(s.ends, off)
	}
	return s
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bytes frames the stream again, every checksum recomputed.
func (s stream) bytes() []byte {
	out := append([]byte(nil), s.header[:column.HeaderSize-4]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	for _, c := range s.cols {
		out = binary.AppendUvarint(out, uint64(len(c)))
		out = append(out, c...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(c, castagnoli))
	}
	return out
}

// with returns a copy of s whose column i is c.
func (s stream) with(i int, c []byte) stream {
	s.cols = append([][]byte(nil), s.cols...)
	s.cols[i] = c
	return s
}

// The columns of a version-9 stream, in order; the tree's follow the
// store's: its own, then two per partition.
const (
	colOptions = iota
	colPivots
	colPivotCoords
	colTerms
	colStrings
	colRows
	colRuns
	colTree
)

// savedStream saves a small three-partition index.
func savedStream(t testing.TB, n int) []byte {
	t.Helper()
	g := synth.New(synth.Config{Seed: 71}, nil)
	store := triple.NewStore()
	for i, tp := range g.Triples(n) {
		store.Add(tp, triple.Provenance{Doc: "doc", Section: "s" + string(rune('a'+i%3)), Seq: i - 7})
	}
	ix, err := Build(store, Options{Seed: 11, PartitionCapacity: n / 3, MaxPartitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wantCorrupt(t *testing.T, b []byte, what string) {
	t.Helper()
	ix, err := Load(bytes.NewReader(b), Options{})
	if err == nil {
		ix.Close()
		t.Fatalf("%s: loaded an index of %d triples", what, ix.Len())
	}
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("%s: %v, want ErrSnapshotCorrupt", what, err)
	}
	if n := strings.Count(err.Error(), "snapshot corrupt"); n != 1 {
		t.Fatalf("%s: %q says \"snapshot corrupt\" %d times, want once", what, err, n)
	}
}

// TestLoadRejectsWrongVersion: a header naming any version but
// snapshotVersion — its checksum recomputed, so the version is what is
// wrong — is corrupt.
func TestLoadRejectsWrongVersion(t *testing.T) {
	ix, err := Build(triple.NewStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	s := splitStream(t, buf.Bytes())
	for _, v := range []byte{0, 3, 4, 5, 6, 7, 8, 99} {
		s.header = append([]byte(nil), s.header...)
		s.header[len(column.Magic)] = v
		wantCorrupt(t, s.bytes(), fmt.Sprintf("version %d", v))
	}
}

// TestLoadRejectsHostileBytes: a snapshot cut anywhere — at every byte,
// so at every column boundary — or with any one byte flipped is
// rejected as corrupt: never a panic, never a short index. A length
// prefix claiming 1 GiB on a 200-byte input fails without allocating
// what it claims: the reader grows its buffer only as bytes arrive.
func TestLoadRejectsHostileBytes(t *testing.T) {
	b := savedStream(t, 45)
	s := splitStream(t, b)
	if len(s.cols) != colTree+1+3*2 {
		t.Fatalf("%d columns, want %d (three partitions)", len(s.cols), colTree+1+3*2)
	}
	for _, end := range append([]int{column.HeaderSize}, s.ends[:len(s.ends)-1]...) {
		wantCorrupt(t, b[:end], fmt.Sprintf("cut at column boundary %d", end))
	}
	for cut := range len(b) {
		wantCorrupt(t, b[:cut], fmt.Sprintf("cut at byte %d", cut))
	}
	flipped := make([]byte, len(b))
	for i := range b {
		copy(flipped, b)
		flipped[i] ^= 0x5a
		wantCorrupt(t, flipped, fmt.Sprintf("byte %d flipped", i))
	}

	huge := binary.AppendUvarint(append([]byte(nil), b[:column.HeaderSize]...), 1<<30)
	huge = append(huge, bytes.Repeat([]byte{7}, 200-len(huge))...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wantCorrupt(t, huge, "1 GiB column on 200 bytes")
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("rejecting a 200-byte stream allocated %d bytes", d)
	}
}

// runColumn encodes a store's run column: per run its length, its
// Doc and Section string ids, the Seq of its first triple and its step.
func runColumn(runs ...[5]int64) []byte {
	c := binary.AppendUvarint(nil, uint64(len(runs)))
	for _, r := range runs {
		c = binary.AppendUvarint(c, uint64(r[0]))
		c = binary.AppendUvarint(c, uint64(r[1]))
		c = binary.AppendUvarint(c, uint64(r[2]))
		c = binary.AppendVarint(c, r[3])
		c = append(c, byte(r[4]))
	}
	return c
}

// rowParts splits a row column into its row count, its positions'
// codings — a dictionary each, nil for codes by TermID — and its
// packed codes.
func rowParts(t *testing.T, c []byte) (n uint64, dicts [3][]uint64, packed []byte) {
	t.Helper()
	var d column.Decoder
	d.Reset(c)
	n = d.Uvarint()
	for j := range dicts {
		if d.Byte() == 0 {
			dicts[j] = make([]uint64, d.Uvarint())
			for k := range dicts[j] {
				dicts[j][k] = d.Uvarint()
			}
		}
	}
	if d.Err() != nil {
		t.Fatalf("row column %x: %v", c, d.Err())
	}
	return n, dicts, d.Rest()
}

// rowColumn encodes a row column from its parts, as given.
func rowColumn(n uint64, dicts [3][]uint64, packed []byte) []byte {
	c := binary.AppendUvarint(nil, n)
	for _, d := range dicts {
		if d == nil {
			c = append(c, 1)
			continue
		}
		c = binary.AppendUvarint(append(c, 0), uint64(len(d)))
		for _, id := range d {
			c = binary.AppendUvarint(c, id)
		}
	}
	return append(c, packed...)
}

// nodeColumn is a partition's node column cut at its nodes.
type nodeColumn struct {
	body   []byte
	state  []int // the offset of each node's state byte
	split  []int // per routing node, the offset after its SplitDim: where its raw SplitVal is, or would be
	bucket []int // per leaf, its bucket length; -1 for any other node
}

// parseNodes cuts a node column at its nodes.
func parseNodes(t *testing.T, c []byte) nodeColumn {
	t.Helper()
	nc := nodeColumn{body: c}
	var d column.Decoder
	d.Reset(c)
	d.Uvarint()
	for range d.Uvarint() {
		at := len(c) - d.Len()
		st := d.Byte()
		nc.state, nc.split, nc.bucket = append(nc.state, at), append(nc.split, -1), append(nc.bucket, -1)
		switch i := len(nc.state) - 1; {
		case st&2 != 0: // a link
			d.Uvarint()
			d.Uvarint()
		case st&1 != 0: // a leaf
			nc.bucket[i] = int(d.Uvarint())
		default:
			d.Uvarint()
			nc.split[i] = len(c) - d.Len()
			if st&4 == 0 {
				d.Float()
			}
			d.Varint()
			d.Varint()
		}
	}
	if err := d.End(); err != nil {
		t.Fatalf("node column %x: %v", c, err)
	}
	return nc
}

// find returns the first node whose state and bucket length satisfy ok,
// or -1.
func (nc nodeColumn) find(ok func(state byte, bucket int) bool) int {
	for i, at := range nc.state {
		if ok(nc.body[at], nc.bucket[i]) {
			return i
		}
	}
	return -1
}

// withState returns the column with node i's state byte set to st.
func (nc nodeColumn) withState(i int, st byte) []byte {
	c := bytes.Clone(nc.body)
	c[nc.state[i]] = st
	return c
}

// idBuckets decodes an ID column over its node column's leaves: the
// Rice parameter, each non-empty leaf's IDs and whether its gaps are
// plain, in node order.
func idBuckets(t *testing.T, nc nodeColumn, c []byte) (k int, buckets [][]uint64, plain []bool) {
	t.Helper()
	k = int(c[0])
	var d column.BitDecoder
	d.Reset(c[1:])
	for i, size := range nc.bucket {
		if size <= 0 {
			continue
		}
		asc := nc.body[nc.state[i]]&8 != 0
		b := make([]uint64, size)
		for j := range b {
			v := d.Rice(k)
			switch {
			case j == 0:
				b[j] = v
			case asc:
				b[j] = b[j-1] + v
			default:
				b[j] = b[j-1] + (v>>1 ^ -(v & 1))
			}
		}
		buckets, plain = append(buckets, b), append(plain, asc)
	}
	if err := d.End(); err != nil {
		t.Fatalf("ID column %x: %v", c, err)
	}
	return k, buckets, plain
}

// idColumn encodes buckets under Rice parameter k — column.RiceParam's
// pick for k < 0 — a bucket's gaps plain where
// plain says and zigzagged elsewhere; bits is the codes' length.
func idColumn(k int, buckets [][]uint64, plain []bool) (c []byte, bits int) {
	var gaps []uint64
	for i, b := range buckets {
		for j, id := range b {
			v := id
			if j > 0 {
				v = id - b[j-1]
				if !plain[i] {
					v = v<<1 ^ uint64(int64(v)>>63)
				}
			}
			gaps = append(gaps, v)
		}
	}
	if k < 0 {
		var p column.RiceParam
		for _, v := range gaps {
			p.Add(v)
		}
		k = p.K()
	}
	a := column.Appender{byte(k)}
	w := column.BitWriter{A: &a}
	for _, v := range gaps {
		w.Rice(v, k)
		bits += int(v>>k) + 1 + k
	}
	w.Flush()
	return a, bits
}

// TestLoadRejectsPatchedColumns: columns no Save wrote, checksums
// recomputed, are corrupt. The pivots and the tree are read against the
// header's one dimension, so a mapper cut to fewer axes than the tree
// has — a pivot-coordinate column of 4 consistent axes over an
// 8-dimensional tree — is corrupt, not an index whose every query
// fails; and so are parameters the metric or FastMap reject, more
// build-placed triples than the store holds, provenance runs that do
// not cover the rows exactly, are empty, name a string past the table
// or step by other than 0 and 1, a row position coded neither through a
// dictionary nor by TermID, a TermID past the table and a set pad bit
// after the row codes; and in the tree, a leaf marked split at its left
// child's top, a routing node marked ascending, a split value written
// raw where its left child's box gives it, an ID column under a Rice
// parameter other than the one column.RiceParam picks for it, an
// ascending bucket whose gaps wrap past 2^64, a bucket that never falls
// not marked ascending, and a byte or a set pad bit after the ID codes.
func TestLoadRejectsPatchedColumns(t *testing.T) {
	s := splitStream(t, savedStream(t, 30))
	var own [][5]int64 // savedStream's sections take turns: a run per triple
	for i := range 30 {
		own = append(own, [5]int64{1, 0, 1 + int64(i%3), int64(i - 7), 0})
	}
	if !bytes.Equal(runColumn(own...), s.cols[colRuns]) {
		t.Fatalf("run column %x does not have the layout this test patches", s.cols[colRuns])
	}
	ix, err := Load(bytes.NewReader(s.with(colRuns, runColumn([5]int64{30, 0, 1, 0, 1})).bytes()), Options{})
	if err != nil {
		t.Fatalf("one run over the 30 rows: %v", err)
	}
	ix.Close()
	options := func(alpha float64, measure string) []byte {
		var c []byte
		for _, f := range []float64{alpha, 0.3, 0.3} {
			c = binary.LittleEndian.AppendUint64(c, math.Float64bits(f))
		}
		c = binary.AppendUvarint(c, uint64(len(measure)))
		return append(append(c, measure...), 0)
	}
	if !bytes.Equal(options(0.4, ""), s.cols[colOptions]) {
		t.Fatalf("options column %x does not have the layout this test patches", s.cols[colOptions])
	}
	coords := s.cols[colPivotCoords]
	floats := 8 * (2*8 + 1) * 8
	if built := binary.AppendUvarint(nil, 30); !bytes.Equal(coords[floats:], built) {
		t.Fatalf("pivot coordinate column of %d bytes, want %d and the build's 30 triples", len(coords), floats)
	}
	n, dicts, packed := rowParts(t, s.cols[colRows])
	if !bytes.Equal(rowColumn(n, dicts, packed), s.cols[colRows]) || dicts[0] != nil || dicts[1] != nil || dicts[2] != nil {
		t.Fatalf("row column %x does not have the layout this test patches: codes by TermID", s.cols[colRows])
	}
	var terms column.Decoder
	terms.Reset(s.cols[colTerms])
	nt := terms.Uvarint()
	width := bits.Len(uint(nt))
	if total := n * uint64(3*width); total%8 == 0 {
		t.Fatalf("%d bits of row codes: no pad bit", total)
	}
	pastTable := append([]byte(nil), packed...)
	pastTable[0] = pastTable[0]&^(1<<width-1) | byte(nt) // row 0's subject: the TermID past the table
	pad := append([]byte(nil), packed...)
	pad[len(pad)-1] |= 0x80
	coding2 := bytes.Clone(s.cols[colRows])
	coding2[len(binary.AppendUvarint(nil, n))] = 2

	// The tree's columns: the root partition's routing trunk, split at
	// the top of each left child's box, and a data partition's leaves.
	colNodes := func(pi int) int { return colTree + 1 + 2*pi }
	trunk := parseNodes(t, s.cols[colNodes(0)])
	r := trunk.find(func(st byte, _ int) bool { return st == 4 })
	data := parseNodes(t, s.cols[colNodes(1)])
	l := data.find(func(st byte, size int) bool { return st == 1|8 && size > 1 })
	if r < 0 || l < 0 {
		t.Fatalf("no routing node split at its left child's top in %x, or no ascending leaf of two points in %x",
			trunk.body, data.body)
	}
	k, buckets, plain := idBuckets(t, data, s.cols[colNodes(1)+1])
	ids, idBits := idColumn(-1, buckets, plain)
	if !bytes.Equal(ids, s.cols[colNodes(1)+1]) || idBits%8 == 0 {
		t.Fatalf("ID column %x does not have the layout this test patches, or no pad bit", s.cols[colNodes(1)+1])
	}
	leaf := 0 // l's place among the leaves holding points
	for i := range l {
		if data.bucket[i] > 0 {
			leaf++
		}
	}
	otherK, _ := idColumn(k+1, buckets, plain)
	wrapped := slices.Clone(buckets)
	wrapped[leaf] = append([]uint64{buckets[leaf][0], buckets[leaf][0] - 1}, buckets[leaf][2:]...)
	wraps, _ := idColumn(-1, wrapped, plain)
	zigzag := slices.Clone(plain)
	zigzag[leaf] = false
	unmarked, _ := idColumn(-1, buckets, zigzag)
	idPad := bytes.Clone(ids)
	idPad[len(idPad)-1] |= 0x80
	loaded, err := Load(bytes.NewReader(s.bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loaded.tree.Snapshot()
	loaded.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw := slices.Insert(bytes.Clone(trunk.body), trunk.split[r],
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(tree.Parts[0].Nodes[r].SplitVal))...)
	raw[trunk.state[r]] = 0

	negative := append([]byte(nil), coords...)
	binary.LittleEndian.PutUint64(negative[8*2*8*8:], math.Float64bits(-1)) // DAB2[0]
	cut := append(coords[:8*(2*4+1)*4:8*(2*4+1)*4], coords[floats:]...)
	for what, patched := range map[string]stream{
		"4-axis mapper over an 8-dim tree":     s.with(colPivotCoords, cut),
		"DAB2[0] = -1":                         s.with(colPivotCoords, negative),
		"31 triples built of 30":               s.with(colPivotCoords, binary.AppendUvarint(coords[:floats:floats], 31)),
		"no build count":                       s.with(colPivotCoords, coords[:floats]),
		`Measure "nope"`:                       s.with(colOptions, options(0.4, "nope")),
		"Alpha 2":                              s.with(colOptions, options(2, "")),
		"a run of 29 over 30 rows":             s.with(colRuns, runColumn([5]int64{29, 0, 1, 0, 1})),
		"a zero-length run":                    s.with(colRuns, runColumn([5]int64{0, 0, 1, 0, 1}, [5]int64{30, 0, 1, 0, 1})),
		"string 4 of 4":                        s.with(colRuns, runColumn([5]int64{30, 0, 4, 0, 1})),
		"step 2":                               s.with(colRuns, runColumn([5]int64{30, 0, 1, 0, 2})),
		"a position coded as 2":                s.with(colRows, coding2),
		"a TermID past the table":              s.with(colRows, rowColumn(n, dicts, pastTable)),
		"a set pad bit":                        s.with(colRows, rowColumn(n, dicts, pad)),
		"a leaf split at its left child's top": s.with(colNodes(1), data.withState(l, 1|4|8)),
		"a routing node marked ascending":      s.with(colNodes(0), trunk.withState(r, 4|8)),
		"a split value written raw at its left child's top": s.with(colNodes(0), raw),
		"a Rice parameter one past RiceParam's":             s.with(colNodes(1)+1, otherK),
		"an ascending bucket that wraps past 2^64":          s.with(colNodes(1)+1, wraps),
		"a bucket that never falls, not marked ascending":   s.with(colNodes(1), data.withState(l, 1)).with(colNodes(1)+1, unmarked),
		"a byte after the ID codes":                         s.with(colNodes(1)+1, append(bytes.Clone(ids), 0)),
		"a set pad bit after the ID codes":                  s.with(colNodes(1)+1, idPad),
	} {
		wantCorrupt(t, patched.bytes(), what)
	}
}

// nonFinitePivotStreams saves one index of n triples through
// writeSnapshot five times: as Save would ("valid"), and with its pivot
// column rewritten to hold a NaN squared pivot distance, a +Inf one, a
// negative one, or one -Inf pivot coordinate on an axis whose pivot
// distance is positive.
func nonFinitePivotStreams(t testing.TB, n int) map[string][]byte {
	t.Helper()
	store := triple.NewStore()
	store.AddAll(synth.New(synth.Config{Seed: 73}, nil).Triples(n), triple.Provenance{Doc: "pivots"})
	ix, err := Build(store, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	tree, err := ix.tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for name, mutate := range map[string]func(m *fastmap.Snapshot[triple.Triple]){
		"valid":              func(*fastmap.Snapshot[triple.Triple]) {},
		"NaN DAB2[0]":        func(m *fastmap.Snapshot[triple.Triple]) { m.DAB2[0] = math.NaN() },
		"+Inf DAB2[0]":       func(m *fastmap.Snapshot[triple.Triple]) { m.DAB2[0] = math.Inf(1) },
		"-1 DAB2[0]":         func(m *fastmap.Snapshot[triple.Triple]) { m.DAB2[0] = -1 },
		"-Inf CoordsB[1][0]": func(m *fastmap.Snapshot[triple.Triple]) { m.CoordsB[1][0] = math.Inf(-1) },
	} {
		snap := indexSnapshot{
			Options: ix.opts,
			Mapper:  fastmap.ConvertSnapshot(ix.mapper.Snapshot(), semdist.Triple.Unresolved),
			Store:   ix.store,
			Rows:    store.Len(),
			Built:   ix.built,
			Tree:    tree,
		}
		m := &snap.Mapper
		if !(m.DAB2[1] > 0) {
			t.Fatalf("axis 1 collapsed (DAB2 %v): its coordinates would not be read", m.DAB2[1])
		}
		for ax := range m.CoordsA { // the mapper shares these; mutate copies
			m.CoordsA[ax], m.CoordsB[ax] = slices.Clone(m.CoordsA[ax]), slices.Clone(m.CoordsB[ax])
		}
		m.DAB2 = slices.Clone(m.DAB2)
		mutate(m)
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, &snap); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestLoadRejectsNonFinitePivots: a pivot column with a NaN, infinite
// or negative squared pivot distance, or an infinite pivot coordinate,
// is corrupt. Loaded, the first three would fail every search on a NaN
// coordinate and the last would answer from broken coordinates.
func TestLoadRejectsNonFinitePivots(t *testing.T) {
	streams := nonFinitePivotStreams(t, 500)
	ix, err := Load(bytes.NewReader(streams["valid"]), Options{})
	if err != nil {
		t.Fatalf("the unmutated stream: %v", err)
	}
	ix.Close()
	delete(streams, "valid")
	for what, b := range streams {
		wantCorrupt(t, b, what)
	}
}

// legacySnapshot is the gob envelope versions 1–3 wrote: the embedding
// table beside the tree in versions 1 and 2, no tree in version 1.
type legacySnapshot struct {
	Version int
	Options persistedOptions
	Entries []triple.Entry
	Mapper  fastmap.Snapshot[triple.Triple]
	Coords  [][]float64
	Tree    *core.TreeSnapshot
}

// loadLegacyRejected writes a fresh index the way an older writer
// would have and requires Load to report ErrSnapshotCorrupt.
func loadLegacyRejected(t *testing.T, version int, opts Options) {
	t.Helper()
	g := synth.New(synth.Config{Seed: 67}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(400) {
		store.Add(tp, triple.Provenance{Doc: "legacy"})
	}
	ix, err := Build(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	tree, err := ix.tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tree.Format = 1
	legacy := legacySnapshot{
		Version: version, Options: ix.opts, Tree: tree,
		Mapper: fastmap.ConvertSnapshot(ix.mapper.Snapshot(), semdist.Triple.Unresolved),
	}
	store.Each(func(_ triple.ID, e triple.Entry) bool {
		legacy.Entries = append(legacy.Entries, e)
		return true
	})
	if version < 3 {
		legacy.Coords = make([][]float64, len(legacy.Entries))
		for _, part := range tree.Parts {
			for slot := range part.IDs {
				pt := part.Point(int32(slot))
				legacy.Coords[pt.ID] = pt.Coords
			}
		}
	}
	if version == 1 {
		legacy.Tree = nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, buf.Bytes(), fmt.Sprintf("version-%d gob stream", version))
}

// TestLoadVersion1Compat: streams written before the tree snapshot
// existed carry Version 1, the embedding table and no Tree payload.
// Nothing writes them any more and there is no tree to restore: Load
// must fail typed, not rebuild and not panic.
func TestLoadVersion1Compat(t *testing.T) {
	loadLegacyRejected(t, 1, Options{Seed: 8})
}

// TestLoadVersion2Compat: a version-2 stream (tree payload plus the
// redundant embedding table) has had no writer since version 3.
func TestLoadVersion2Compat(t *testing.T) {
	loadLegacyRejected(t, 2, Options{Seed: 8, PartitionCapacity: 120, MaxPartitions: 4})
}

// TestLoadVersion3Compat: version 3, the last gob stream, has had no
// writer since version 4; there is no second decoder for it.
func TestLoadVersion3Compat(t *testing.T) {
	loadLegacyRejected(t, 3, Options{Seed: 8, PartitionCapacity: 120, MaxPartitions: 4})
}

// FuzzLoadSnapshot: Load must never panic on arbitrary snapshot bytes;
// every rejection is ErrSnapshotCorrupt, and bytes Load accepts must
// yield a queryable index.
func FuzzLoadSnapshot(f *testing.F) {
	valid := savedStream(f, 120)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncation
	f.Add([]byte("not a snapshot"))
	f.Add([]byte{})
	s := splitStream(f, valid)
	s.header = append([]byte(nil), s.header...)
	s.header[len(column.Magic)] = 41 // version skew
	f.Add(s.bytes())
	crc := append([]byte(nil), valid...)
	crc[s.ends[colRows]-1] ^= 1 // the row column's checksum
	f.Add(crc)
	pivots := nonFinitePivotStreams(f, 120)
	f.Add(pivots["NaN DAB2[0]"])
	f.Add(pivots["-1 DAB2[0]"])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // size-capped: huge inputs only test the allocator
		}
		loaded, err := Load(bytes.NewReader(data), Options{})
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("rejected without ErrSnapshotCorrupt: %v", err)
			}
			return
		}
		defer loaded.Close()
		g := synth.New(synth.Config{Seed: 72}, nil)
		if _, err := loaded.Searcher(WithK(3)).Search(context.Background(), g.RandomTriple()); err != nil {
			t.Fatalf("accepted snapshot does not answer queries: %v", err)
		}
	})
}

// TestReloadInsertGrownSplits: a tree that single inserts grew past its
// bulk build splits some leaves at the midpoint of their range
// (kdtree.Arena.SplitLeaf's fallback), not at their left half's top —
// the one split value a snapshot writes raw. Over 20 000 Inserts after
// a 50 000-triple build on five partitions, on both fabrics, Save →
// Load restores every node bit for bit (split values included), every
// ID and every coordinate, Save of the loaded index writes the saved
// bytes, and the loaded tree's k-NN and range answers are the flat
// scan's over its points.
func TestReloadInsertGrownSplits(t *testing.T) {
	if testing.Short() {
		t.Skip("50k build and 20k inserts")
	}
	n, more := 50000, 20000
	if raceEnabled {
		n, more = 10000, 4000
	}
	triples := synth.New(synth.Config{Seed: 1, Actors: 200}, nil).Triples(n + more)
	queries := synth.New(synth.Config{Seed: 2, Actors: 200}, nil).Triples(40)
	for _, fab := range []struct {
		name string
		new  func() cluster.Fabric
	}{
		{"tcp", func() cluster.Fabric { return cluster.NewTCP() }},
		{"inproc", func() cluster.Fabric { return cluster.NewInProc(cluster.InProcOptions{}) }},
	} {
		t.Run(fab.name, func(t *testing.T) {
			opts := func() Options {
				f := fab.new()
				t.Cleanup(func() { f.Close() })
				return Options{Seed: 1, PartitionCapacity: n / 4, MaxPartitions: 5, Fabric: f}
			}
			store := triple.NewStore()
			store.AddAll(triples[:n], triple.Provenance{Doc: "built"})
			orig, err := Build(store, opts())
			if err != nil {
				t.Fatal(err)
			}
			defer orig.Close()
			for _, tp := range triples[n:] {
				if _, err := orig.Insert(tp, triple.Provenance{Doc: "inserted"}); err != nil {
					t.Fatal(err)
				}
			}
			var first, second bytes.Buffer
			if err := Save(&first, orig); err != nil {
				t.Fatal(err)
			}
			s := splitStream(t, first.Bytes())
			raw, routing := 0, 0
			for c := colTree + 1; c < len(s.cols); c += 2 {
				nc := parseNodes(t, s.cols[c])
				for _, at := range nc.state {
					if st := nc.body[at]; st&(1|2) == 0 {
						routing++
						if st&4 == 0 {
							raw++
						}
					}
				}
			}
			t.Logf("%d of %d routing nodes split off their left child's top", raw, routing)
			if raw == 0 || orig.PartitionCount() != 5 {
				t.Fatalf("%d raw split values on %d partitions: the midpoint fallback went untested", raw, orig.PartitionCount())
			}
			loaded, err := Load(bytes.NewReader(first.Bytes()), opts())
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			if err := Save(&second, loaded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("Save of the loaded index wrote %d bytes that differ from the %d saved", second.Len(), first.Len())
			}
			want, err := orig.tree.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.tree.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for pi := range want.Parts {
				w, g := &want.Parts[pi], &got.Parts[pi]
				if len(g.Nodes) != len(w.Nodes) || !slices.Equal(g.IDs, w.IDs) || !sameBits(g.Coords, w.Coords) {
					t.Fatalf("partition %d: %d nodes, IDs or coordinates differ from the %d saved", pi, len(g.Nodes), len(w.Nodes))
				}
				for ni := range w.Nodes {
					a, b := &g.Nodes[ni], &w.Nodes[ni]
					if a.Leaf != b.Leaf || a.Moved != b.Moved || a.SplitDim != b.SplitDim ||
						math.Float64bits(a.SplitVal) != math.Float64bits(b.SplitVal) ||
						a.Left != b.Left || a.Right != b.Right || a.Fwd != b.Fwd || !slices.Equal(a.Slots, b.Slots) {
						t.Fatalf("partition %d node %d: %+v, saved %+v", pi, ni, *a, *b)
					}
				}
			}

			points := treeCoords(t, loaded)
			ctx := context.Background()
			for qi, q := range queries {
				c := loaded.embed(q)
				var flat []kdtree.Neighbor
				sq := make(map[uint64]float64, len(points))
				for id, p := range points {
					sq[id] = kdtree.EuclideanSq(c, p)
					flat = append(flat, kdtree.Neighbor{Point: kdtree.Point{ID: id}, Dist: math.Sqrt(sq[id])})
				}
				slices.SortFunc(flat, func(a, b kdtree.Neighbor) int {
					return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Point.ID, b.Point.ID))
				})
				knn, err := loaded.tree.KNearest(ctx, c, 10)
				if err != nil {
					t.Fatal(err)
				}
				radius := flat[25].Dist
				within := 0 // a range search compares squared distances with the radius squared
				for within < len(flat) && sq[flat[within].Point.ID] <= radius*radius {
					within++
				}
				rng, err := loaded.tree.RangeSearch(ctx, c, radius)
				if err != nil {
					t.Fatal(err)
				}
				for _, cs := range []struct {
					name      string
					got, want []kdtree.Neighbor
				}{{"k-NN", knn, flat[:10]}, {"range", rng, flat[:within]}} {
					if len(cs.got) != len(cs.want) {
						t.Fatalf("query %d %s: %d answers, the flat scan %d", qi, cs.name, len(cs.got), len(cs.want))
					}
					for i, x := range cs.want {
						if y := cs.got[i]; y.Point.ID != x.Point.ID || math.Float64bits(y.Dist) != math.Float64bits(x.Dist) {
							t.Fatalf("query %d %s rank %d: (%d, %v), the flat scan (%d, %v)", qi, cs.name, i, y.Point.ID, y.Dist, x.Point.ID, x.Dist)
						}
					}
				}
			}
		})
	}
}
