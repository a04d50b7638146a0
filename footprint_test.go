package semtree

import (
	"runtime"
	"testing"

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
