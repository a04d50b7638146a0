package semtree

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/column"
	"semtree/internal/synth"
	"semtree/internal/triple"
)

// TestIndexFootprint gates what the flat arena is for: an index built
// over the benchmark's 100k corpus — tree, mapper and metric; the store
// is filled before the first reading — retains at most 116 bytes of
// heap per point (138.5 when every point and node owned slices of its
// own). ARCHITECTURE.md "Memory" splits the figure by owner.
func TestIndexFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-triple build")
	}
	const n = 100000
	store := triple.NewStore()
	store.AddAll(synth.New(synth.Config{Seed: 1, Actors: 200}, nil).Triples(n), triple.Provenance{Doc: "synth"})
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	ix, err := Build(store, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := (float64(heap()) - float64(before)) / n
	runtime.KeepAlive(ix)
	ix.Close()
	t.Logf("index retains %.1f B per point", got)
	if got > 116 {
		t.Errorf("index retains %.1f B per point of the 100k synth corpus, want <= 116", got)
	}
}

// TestSnapshotFootprint gates the snapshot of the benchmark's knn-local
// index — 100k synth triples under one provenance on one partition — at
// 5.15 bytes per triple (4.90 measured at version 9; 6.12 at version 8,
// which wrote every split value raw and every ID gap as a varint; 8.56
// at version 7, whose rows, IDs and routing children were plain
// uvarints), and logs each column's payload, read back through
// column.Reader, so a format change shows where the file grew.
func TestSnapshotFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-triple build")
	}
	const n = 100000
	store := triple.NewStore()
	store.AddAll(synth.New(synth.Config{Seed: 1, Actors: 200}, nil).Triples(n), triple.Provenance{Doc: "synth"})
	ix, err := Build(store, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	names := []string{"options", "pivots", "pivot coordinates", "terms", "strings", "rows", "runs", "tree", "nodes", "IDs"}
	r := column.NewReader(bytes.NewReader(buf.Bytes()))
	if _, _, err := r.Header(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if err := r.Next(); err != nil {
			t.Fatalf("column %s: %v", name, err)
		}
		t.Logf("%-17s %8d B  %.3f B/triple", name, r.Len(), float64(r.Len())/n)
	}
	if err := r.Next(); err == nil {
		t.Fatalf("a column after the %d of one partition's snapshot", len(names))
	}
	got := float64(buf.Len()) / n
	t.Logf("snapshot: %d B, %.3f B/triple", buf.Len(), got)
	if got > 5.15 {
		t.Errorf("snapshot of the 100k synth corpus takes %.3f B per triple, want <= 5.15", got)
	}
}

// TestIndexBuildAllocs bounds the allocations of a warmed Build over
// the benchmark's 100k corpus, the store filled beforehand: the
// embedding's and the tree's blocks and their scratch, none of it per
// point or per node. The tree adopts FastMap's coordinate block rather
// than copying it. GOMAXPROCS is 1, so no scan range or build half
// starts a goroutine: their number is not what is counted.
func TestIndexBuildAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("100k-triple build; counted without the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 100000
	store := triple.NewStore()
	store.AddAll(synth.New(synth.Config{Seed: 1, Actors: 200}, nil).Triples(n), triple.Provenance{Doc: "synth"})
	build := func() {
		ix, err := Build(store, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ix.Close()
	}
	build() // warm: the store's encoding and the vocabulary caches
	allocs := testing.AllocsPerRun(1, build)
	t.Logf("100k Build: %.0f allocations", allocs)
	if allocs > 740 {
		t.Fatalf("100k Build: %.0f allocations, want at most 740", allocs)
	}
}

// TestDistributedSearchAllocs gates the allocation cost of a search
// whose k-NN crosses partitions: warmed sequential K = 10 searches over
// 20k synth triples (Actors 200) on nine loopback TCP partitions and on
// five in-process ones. A hop ships (ID, distance) pairs and only what
// its callee found, the forward request lives in the pooled query
// context, a TCP serving end decodes each k-NN request into a pooled
// one and answers it on a parked worker, every k-NN reply is drawn from
// the reply pool and put back by its last reader (the serving end once
// written, the caller once merged), and the query's coordinates, root
// request and answer buffer come from the searcher's pooled scratch —
// so a search allocates its Matches and nothing else. Measured 1 on
// both (16 on TCP and 8 on InProc when every reply was a fresh box and
// slice; 31 on TCP with a fresh request and a goroutine per call; 42
// and 11 when every hop shipped coordinates both ways and echoed the
// merged set back).
func TestDistributedSearchAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("20k-triple builds; counted without the race detector")
	}
	const n = 20000
	store := triple.NewStore()
	store.AddAll(synth.New(synth.Config{Seed: 1, Actors: 200}, nil).Triples(n), triple.Provenance{Doc: "synth"})
	qs := synth.New(synth.Config{Seed: 2, Actors: 200}, nil).Triples(256)
	for _, c := range []struct {
		name       string
		partitions int
		fabric     cluster.Fabric
		limit      float64
	}{
		{"tcp9", 9, cluster.NewTCP(), 2},
		{"inproc5", 5, cluster.NewInProc(cluster.InProcOptions{}), 2},
	} {
		ix, err := Build(store, Options{Seed: 1, MaxPartitions: c.partitions, PartitionCapacity: n / (c.partitions - 1), Fabric: c.fabric})
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.tree.PartitionCount(); got != c.partitions {
			t.Fatalf("%s: %d partitions, want %d", c.name, got, c.partitions)
		}
		s := ix.Searcher(WithK(10), WithProtocol(ProtocolSequential))
		ctx := context.Background()
		i := 0
		search := func() {
			if _, err := s.Search(ctx, qs[i%len(qs)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for range qs {
			search() // warm: pools, connections and the cost model
		}
		got := testing.AllocsPerRun(len(qs), search)
		t.Logf("%s: %.2f allocs per search", c.name, got)
		if got > c.limit {
			t.Errorf("%s: %.2f allocs per search, want at most %v", c.name, got, c.limit)
		}
		ix.Close()
		c.fabric.Close()
	}
}
