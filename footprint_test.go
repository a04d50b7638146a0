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
