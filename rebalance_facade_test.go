package semtree

import (
	"context"
	"testing"

	"semtree/internal/synth"
	"semtree/internal/triple"
)

func TestIndexRebalanceAfterGrowth(t *testing.T) {
	g := synth.New(synth.Config{Seed: 81}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(300) {
		store.Add(tp, triple.Provenance{})
	}
	ix, err := Build(store, Options{Seed: 10, MaxPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// Grow the index well past its build size with dynamic inserts.
	var inserted []triple.Triple
	for i := 0; i < 900; i++ {
		tp := g.RandomTriple()
		inserted = append(inserted, tp)
		if _, err := ix.Insert(tp, triple.Provenance{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Rebalance(); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if ix.PartitionCount() != 4 {
		t.Fatalf("partitions after rebalance = %d", ix.PartitionCount())
	}
	if ix.Len() != 1200 {
		t.Fatalf("Len = %d", ix.Len())
	}
	// Every dynamically inserted triple must still be findable exactly.
	for i := 0; i < 40; i++ {
		probe := inserted[i*20%len(inserted)]
		res, err := ix.Searcher(WithK(1)).Search(context.Background(), probe)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Matches
		if len(got) != 1 || got[0].Dist > 1e-9 {
			t.Fatalf("probe %v not found after rebalance: %v", probe, got)
		}
	}
}
