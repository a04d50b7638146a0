package semtree

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"semtree/internal/synth"
	"semtree/internal/triple"
)

// goldenV6 is a small index saved as a version-6 snapshot and committed
// beside the code, so a change that moves a byte of the format fails
// here even when Save and Load move together. Rewrite it only with a
// snapshotVersion bump:
//
//	go test -run TestSnapshotV6Golden -update-golden .
const goldenV6 = "testdata/snapshot-v6-golden.bin"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenV6+" from a fresh build")

// goldenIndex builds the index goldenV6 holds: 2 000 synth triples over
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

// TestSnapshotV6Golden: Load then Save reproduces the committed file
// byte for byte, and the loaded index answers 64 fixed queries exactly
// like a fresh Build of the same triples — IDs, distance bits and the
// work each query did.
func TestSnapshotV6Golden(t *testing.T) {
	fresh := goldenIndex(t)
	if *updateGolden {
		var buf bytes.Buffer
		if err := Save(&buf, fresh); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenV6, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenV6)
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
		t.Fatalf("Load then Save wrote %d bytes that differ from the %d of %s", again.Len(), len(golden), goldenV6)
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

// buildLayoutGolden holds, per build of TestBuildLayoutGolden, the
// SHA-256 of the index's Save bytes. A line moves only when a change
// moves the layout a bulk build gives the real embedding, or the
// snapshot format (snapshotVersion); on a mismatch the test prints the
// lines it computed.
const buildLayoutGolden = "testdata/build-layout-golden.txt"

// TestBuildLayoutGolden pins the layout of a bulk build over FastMap's
// own coordinates — tie-heavy, unlike the kernel tests' random points —
// at a size above the kernel's parallel threshold: 30 000 synth triples
// on one partition, and spread over nine partitions as knn-tcp9 spreads
// its corpus (PartitionCapacity n/8).
func TestBuildLayoutGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("30k-triple builds")
	}
	const n = 30000
	triples := synth.New(synth.Config{Seed: 1, Actors: 200}, nil).Triples(n)
	builds := []struct {
		name  string
		opts  Options
		parts int
	}{
		{"one-partition", Options{Seed: 1}, 1},
		{"nine-partitions", Options{Seed: 1, PartitionCapacity: n / 8, MaxPartitions: 9}, 9},
	}
	var got []string
	for _, b := range builds {
		store := triple.NewStore()
		store.AddAll(triples, triple.Provenance{Doc: "synth"})
		ix, err := Build(store, b.opts)
		if err != nil {
			t.Fatal(err)
		}
		if ix.PartitionCount() != b.parts {
			t.Fatalf("%s: %d partitions, want %d", b.name, ix.PartitionCount(), b.parts)
		}
		var buf bytes.Buffer
		if err := Save(&buf, ix); err != nil {
			t.Fatal(err)
		}
		ix.Close()
		got = append(got, fmt.Sprintf("%s sha256:%x", b.name, sha256.Sum256(buf.Bytes())))
	}
	want, err := os.ReadFile(buildLayoutGolden)
	if err != nil {
		t.Fatalf("%v; the builds computed:\n%s", err, strings.Join(got, "\n"))
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Fatalf("build layouts moved; %s holds\n%s\nthe builds computed\n%s", buildLayoutGolden, want, g)
	}
}
