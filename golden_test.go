package semtree

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"testing"

	"semtree/internal/synth"
	"semtree/internal/triple"
)

// goldenV4 is a small index saved as a version-4 snapshot and committed
// beside the code, so a change that moves a byte of the format fails
// here even when Save and Load move together. Rewrite it only with a
// snapshotVersion bump:
//
//	go test -run TestSnapshotV4Golden -update-golden .
const goldenV4 = "testdata/snapshot-v4-golden.bin"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenV4+" from a fresh build")

// goldenIndex builds the index goldenV4 holds: 2 000 synth triples over
// three partitions.
func goldenIndex(t *testing.T) *Index {
	t.Helper()
	store := triple.NewStore()
	store.AddAll(synth.New(synth.Config{Seed: 1, Actors: 200}, nil).Triples(2000), triple.Provenance{Doc: "golden"})
	ix, err := Build(store, Options{Seed: 1, PartitionCapacity: 800, MaxPartitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// TestSnapshotV4Golden: Load then Save reproduces the committed file
// byte for byte, and the loaded index answers 64 fixed queries exactly
// like a fresh Build of the same triples — IDs, distance bits and the
// work each query did.
func TestSnapshotV4Golden(t *testing.T) {
	fresh := goldenIndex(t)
	if *updateGolden {
		var buf bytes.Buffer
		if err := Save(&buf, fresh); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenV4, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenV4)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(golden), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.PartitionCount() != 3 || loaded.Len() != 2000 {
		t.Fatalf("golden index: %d triples on %d partitions, want 2000 on 3", loaded.Len(), loaded.PartitionCount())
	}
	var again bytes.Buffer
	if err := Save(&again, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Fatalf("Load then Save wrote %d bytes that differ from the %d of %s", again.Len(), len(golden), goldenV4)
	}

	queries := synth.New(synth.Config{Seed: 2, Actors: 200}, nil).Triples(64)
	want, got := fresh.Searcher(WithK(7), WithProtocol(ProtocolSequential)), loaded.Searcher(WithK(7), WithProtocol(ProtocolSequential))
	for qi, q := range queries {
		a, err := want.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Matches) != len(b.Matches) {
			t.Fatalf("query %d: %d matches, fresh build %d", qi, len(b.Matches), len(a.Matches))
		}
		for i, x := range a.Matches {
			if y := b.Matches[i]; x.ID != y.ID || math.Float64bits(x.Dist) != math.Float64bits(y.Dist) {
				t.Fatalf("query %d rank %d: (%d, %v), fresh build (%d, %v)", qi, i, y.ID, y.Dist, x.ID, x.Dist)
			}
		}
		a.Stats.Wall, b.Stats.Wall = 0, 0
		if a.Stats != b.Stats {
			t.Fatalf("query %d: stats %+v, fresh build %+v", qi, b.Stats, a.Stats)
		}
	}
}
