package semtree

import (
	"context"
	"testing"
	"time"

	"semtree/internal/synth"
	"semtree/internal/triple"
)

// TestScalePaperCorpus builds the index at the paper's corpus scale
// ("about 100,000 triples", §IV) across 9 partitions and spot-checks
// retrieval. Skipped in -short mode.
func TestScalePaperCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build")
	}
	const n = 100_000
	g := synth.New(synth.Config{Seed: 91, Actors: 400}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(n) {
		store.Add(tp, triple.Provenance{Doc: "CORPUS"})
	}
	start := time.Now()
	ix, err := Build(store, Options{
		Seed:              91,
		PartitionCapacity: 8 * 16,
		MaxPartitions:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	buildTime := time.Since(start)
	if ix.Len() != n {
		t.Fatalf("indexed %d of %d triples", ix.Len(), n)
	}
	if ix.PartitionCount() != 9 {
		t.Fatalf("partitions = %d, want 9", ix.PartitionCount())
	}
	st, err := ix.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != n {
		t.Fatalf("partition points sum to %d", st.Points)
	}
	t.Logf("built 100k-triple index in %v (%d tree nodes, %d leaves)",
		buildTime.Round(time.Millisecond), st.Nodes, st.Leaves)

	// Exact duplicates of stored triples must come back at distance 0.
	probeGen := synth.New(synth.Config{Seed: 91, Actors: 400}, nil)
	probes := probeGen.Triples(50) // same seed → prefix of the corpus
	qStart := time.Now()
	for _, probe := range probes {
		res, err := ix.Searcher(WithK(3)).Search(context.Background(), probe)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Matches
		if len(got) != 3 || got[0].Dist > 1e-9 {
			t.Fatalf("stored triple %v not retrieved at distance 0: %v", probe, got)
		}
	}
	t.Logf("mean k-NN latency at 100k: %v", (time.Since(qStart) / time.Duration(len(probes))).Round(time.Microsecond))
}
