package semtree

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sync"
	"testing"

	"semtree/internal/column"
	"semtree/internal/core"
	"semtree/internal/fastmap"
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

// TestSaveTwiceByteEqual: a snapshot's bytes are a function of the
// index. Consecutive Saves of one four-partition index — whose root
// partition caches one remote box per frontier subtree, in a map — are
// byte-equal. (Eight Saves, not two: a map of four entries iterates in
// the same order often enough for two to agree by luck.)
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

// stream is a version-4 snapshot cut at its frames: the fixed header,
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

// The columns of a version-4 stream, in order; the tree's follow the
// store's.
const (
	colOptions = iota
	colPivots
	colPivotCoords
	colTerms
	colStrings
	colRows
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
	for _, v := range []byte{0, 3, 5, 99} {
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
	if len(s.cols) != colTree+1+4*3 {
		t.Fatalf("%d columns, want %d (three partitions)", len(s.cols), colTree+1+4*3)
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

// TestLoadRejectsPatchedColumns: columns no Save wrote, checksums
// recomputed, are corrupt. The pivots and the tree are read against the
// header's one dimension, so a mapper cut to fewer axes than the tree
// has — a pivot-coordinate column of 4 consistent axes over an
// 8-dimensional tree — is corrupt, not an index whose every query
// fails; and so are parameters the metric or FastMap reject.
func TestLoadRejectsPatchedColumns(t *testing.T) {
	s := splitStream(t, savedStream(t, 30))
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
	if want := 8 * (2*8 + 1) * 8; len(coords) != want {
		t.Fatalf("pivot coordinate column of %d bytes, want %d", len(coords), want)
	}
	negative := append([]byte(nil), coords...)
	binary.LittleEndian.PutUint64(negative[8*2*8*8:], math.Float64bits(-1)) // DAB[0]
	for what, patched := range map[string]stream{
		"4-axis mapper over an 8-dim tree": s.with(colPivotCoords, coords[:8*(2*4+1)*4]),
		"DAB[0] = -1":                      s.with(colPivotCoords, negative),
		`Measure "nope"`:                   s.with(colOptions, options(0.4, "nope")),
		"Alpha 2":                          s.with(colOptions, options(2, "")),
	} {
		wantCorrupt(t, patched.bytes(), what)
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
