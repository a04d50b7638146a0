package semtree

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"sync"
	"testing"

	"semtree/internal/core"
	"semtree/internal/fastmap"
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
// and answers identically. (To re-shape a reloaded fleet, Rebalance
// after Load.)
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
	for q := 0; q < 15; q++ {
		query := qGen.RandomTriple()
		ra, _ := orig.Searcher(WithK(5)).Search(context.Background(), query)
		rb, _ := loaded.Searcher(WithK(5)).Search(context.Background(), query)
		a, b := ra.Matches, rb.Matches
		if len(a) != len(b) {
			t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Dist != b[i].Dist || a[i].ID != b[i].ID {
				t.Fatalf("restored load changed answers")
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

// legacySnapshot is the envelope versions 1 and 2 wrote: the current
// one plus the separate embedding table (one row per triple), with the
// Tree payload absent in version 1.
type legacySnapshot struct {
	Version int
	Options persistedOptions
	Entries []triple.Entry
	Mapper  fastmap.Snapshot[triple.Triple]
	Coords  [][]float64
	Tree    *core.TreeSnapshot
}

// legacyStream re-encodes a freshly saved index the way an older writer
// would have: the given version stamp, the embedding table beside the
// tree, and — for version 1 — no tree payload.
func legacyStream(t *testing.T, ix *Index, version int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	var snap indexSnapshot
	if err := decodeSnapshot(&buf, &snap); err != nil {
		t.Fatal(err)
	}
	legacy := legacySnapshot{
		Version: version, Options: snap.Options, Entries: snap.Entries, Mapper: snap.Mapper, Tree: snap.Tree,
		Coords: make([][]float64, len(snap.Entries)),
	}
	for _, part := range legacy.Tree.Parts {
		for _, n := range part.Nodes {
			for _, pt := range n.Bucket {
				legacy.Coords[pt.ID] = pt.Coords
			}
		}
	}
	if version == 1 {
		legacy.Tree = nil
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestLoadVersion1Compat: streams written before the tree snapshot
// existed carry Version 1, the embedding table and no Tree payload.
// Nothing writes them any more and there is no tree to restore: Load
// must fail typed, not rebuild and not panic.
func TestLoadVersion1Compat(t *testing.T) {
	loadLegacyRejected(t, 1, Options{Seed: 8})
}

// TestLoadVersion2Compat: a version-2 stream (tree payload plus the
// redundant embedding table) has had no writer since version 3; Load
// accepts exactly snapshotVersion, so it fails typed like version 1.
func TestLoadVersion2Compat(t *testing.T) {
	loadLegacyRejected(t, 2, Options{Seed: 8, PartitionCapacity: 120, MaxPartitions: 4})
}

// loadLegacyRejected saves a fresh index, re-encodes it as the given
// older version and requires Load to report ErrSnapshotCorrupt.
func loadLegacyRejected(t *testing.T, version int, opts Options) {
	t.Helper()
	g := synth.New(synth.Config{Seed: 67}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(400) {
		store.Add(tp, triple.Provenance{Doc: "legacy"})
	}
	orig, err := Build(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	if _, err := Load(legacyStream(t, orig, version), Options{}); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("version-%d stream must return ErrSnapshotCorrupt, got %v", version, err)
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

func TestLoadRejectsWrongVersion(t *testing.T) {
	store := triple.NewStore()
	ix, err := Build(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	// Corrupt the version by re-encoding a tampered snapshot.
	var snap indexSnapshot
	if err := decodeSnapshot(&buf, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Version = 99
	var buf2 bytes.Buffer
	if err := encodeSnapshot(&buf2, &snap); err != nil {
		t.Fatal(err)
	}
	_, err = Load(&buf2, Options{})
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("wrong version must return ErrSnapshotCorrupt, got %v", err)
	}
}

// FuzzLoadSnapshot: Load must never panic on arbitrary snapshot bytes.
// Bytes that gob cannot decode into the envelope, and decodable
// envelopes with an unknown version stamp, must surface as
// ErrSnapshotCorrupt; bytes Load accepts must yield a queryable index.
func FuzzLoadSnapshot(f *testing.F) {
	g := synth.New(synth.Config{Seed: 70}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(120) {
		store.Add(tp, triple.Provenance{Doc: "fz"})
	}
	ix, err := Build(store, Options{Seed: 11, PartitionCapacity: 60, MaxPartitions: 3})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := Save(&valid, ix); err != nil {
		f.Fatal(err)
	}
	ix.Close()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2]) // truncation
	f.Add([]byte("not a snapshot"))
	f.Add([]byte{})
	// Version skew.
	var snap indexSnapshot
	if err := decodeSnapshot(bytes.NewReader(valid.Bytes()), &snap); err != nil {
		f.Fatal(err)
	}
	snap.Version = 41
	var skew bytes.Buffer
	if err := encodeSnapshot(&skew, &snap); err != nil {
		f.Fatal(err)
	}
	f.Add(skew.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // size-capped: huge inputs only test the allocator
		}
		// Pre-decode to learn what a correct Load must conclude, and to
		// bound the work a decodable envelope may demand.
		var snap indexSnapshot
		decErr := decodeSnapshot(bytes.NewReader(data), &snap)
		if decErr == nil {
			if len(snap.Entries) > 1<<12 ||
				len(snap.Mapper.PivotA) > 64 || len(snap.Mapper.PivotB) > 64 ||
				(snap.Tree != nil && (len(snap.Tree.Parts) > 16 || snap.Tree.Size > 1<<16)) {
				return
			}
		}
		loaded, err := Load(bytes.NewReader(data), Options{})
		if err != nil {
			if decErr != nil && !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("undecodable bytes must report ErrSnapshotCorrupt, got %v", err)
			}
			if decErr == nil && snap.Version != snapshotVersion && !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("version %d must report ErrSnapshotCorrupt, got %v", snap.Version, err)
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
