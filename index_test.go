package semtree

import (
	"context"
	"sort"
	"testing"

	"semtree/internal/reqcheck"
	"semtree/internal/semdist"
	"semtree/internal/synth"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

func tr(s string) triple.Triple {
	t, err := triple.ParseTriple(s)
	if err != nil {
		panic(err)
	}
	return t
}

func buildTestIndex(t *testing.T, n int, opts Options) (*Index, *synth.Generator) {
	t.Helper()
	g := synth.New(synth.Config{Seed: 21}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(n) {
		store.Add(tp, triple.Provenance{Doc: "D"})
	}
	ix, err := Build(store, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, g
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := Build(triple.NewStore(), Options{Measure: "cosine"}); err == nil {
		t.Fatal("unknown measure accepted")
	}
	if _, err := Build(triple.NewStore(), Options{Weights: semdist.Weights{Alpha: 2, Beta: 0, Gamma: 0}}); err == nil {
		t.Fatal("invalid weights accepted")
	}
}

func TestBuildEmptyStore(t *testing.T) {
	ix, err := Build(triple.NewStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	got, err := ix.Searcher(WithK(3)).Search(context.Background(), tr("('A', Fun:accept_cmd, CmdType:start-up)"))
	if err != nil || len(got.Matches) != 0 {
		t.Fatalf("empty index KNN = %v, %v", got.Matches, err)
	}
}

func TestKNearestFindsExactDuplicate(t *testing.T) {
	ix, _ := buildTestIndex(t, 500, Options{})
	probe := tr("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	id, err := ix.Insert(probe, triple.Provenance{Doc: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Searcher(WithK(1)).Search(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matches
	if len(got) != 1 || got[0].Dist > 1e-9 {
		t.Fatalf("exact duplicate not at distance 0: %+v", got)
	}
	if got[0].ID != id && !got[0].Triple.Equal(probe) {
		t.Fatalf("wrong match: %+v", got[0])
	}
	if got[0].Prov.Doc != "probe" && !got[0].Triple.Equal(probe) {
		t.Fatalf("provenance lost: %+v", got[0])
	}
}

func TestKNearestApproximatesExactRanking(t *testing.T) {
	// The embedded k-NN must agree well with the brute-force semantic
	// ranking: for most queries, a large fraction of the true top-5 by
	// Eq. 1 appears in the index's top-10.
	ix, g := buildTestIndex(t, 800, Options{})
	exact := reqcheck.NewExactIndex(ix.Store(), semdist.MustNew(vocab.DefaultRegistry(), semdist.Options{}))
	qGen := synth.New(synth.Config{Seed: 99}, nil)
	_ = g
	totalOverlap, queries := 0, 30
	for q := 0; q < queries; q++ {
		query := qGen.RandomTriple()
		wantIDs, err := exact.KNearestIDs(context.Background(), query, 5)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, err := ix.KNearestIDs(context.Background(), query, 10)
		if err != nil {
			t.Fatal(err)
		}
		got := map[triple.ID]bool{}
		for _, id := range gotIDs {
			got[id] = true
		}
		// Compare by triple content: duplicates make ID sets ambiguous.
		wantKeys := map[string]bool{}
		for _, id := range wantIDs {
			wantKeys[ix.Store().MustGet(id).Key()] = true
		}
		gotKeys := map[string]bool{}
		for id := range got {
			gotKeys[ix.Store().MustGet(id).Key()] = true
		}
		for k := range wantKeys {
			if gotKeys[k] {
				totalOverlap++
			}
		}
	}
	// On average at least 3 of the true top-5 triple values in our top-10.
	if totalOverlap < queries*3 {
		t.Fatalf("embedding recall too low: %d/%d", totalOverlap, queries*5)
	}
}

func TestRangeReturnsSortedWithinRadius(t *testing.T) {
	ix, _ := buildTestIndex(t, 600, Options{})
	q := tr("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	res, err := ix.Searcher(WithRadius(0.3)).Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matches
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Dist < got[j].Dist }) {
		t.Fatal("range results not sorted")
	}
	for _, m := range got {
		if m.Dist > 0.3 {
			t.Fatalf("match outside radius: %+v", m)
		}
	}
	// Growing the radius can only grow the result set.
	wider, err := ix.Searcher(WithRadius(0.5)).Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(wider.Matches) < len(got) {
		t.Fatalf("wider range returned fewer results: %d < %d", len(wider.Matches), len(got))
	}
}

func TestPartitionedIndexMatchesSinglePartition(t *testing.T) {
	g := synth.New(synth.Config{Seed: 33}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(1200) {
		store.Add(tp, triple.Provenance{})
	}
	single, err := Build(store, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	parted, err := Build(store, Options{Seed: 4, PartitionCapacity: 150, MaxPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer parted.Close()
	if parted.PartitionCount() < 2 {
		t.Fatalf("partitions = %d", parted.PartitionCount())
	}
	qGen := synth.New(synth.Config{Seed: 77}, nil)
	for q := 0; q < 25; q++ {
		query := qGen.RandomTriple()
		ra, err := single.Searcher(WithK(5)).Search(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := parted.Searcher(WithK(5)).Search(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		a, b := ra.Matches, rb.Matches
		if len(a) != len(b) {
			t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if d := a[i].Dist - b[i].Dist; d > 1e-9 || d < -1e-9 {
				t.Fatalf("distances differ at %d: %f vs %f", i, a[i].Dist, b[i].Dist)
			}
		}
	}
}

func TestSemanticDistanceExposed(t *testing.T) {
	ix, _ := buildTestIndex(t, 10, Options{})
	a := tr("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	b := tr("('OBSW001', Fun:block_cmd, CmdType:start-up)")
	if d := ix.SemanticDistance(a, a); d != 0 {
		t.Fatalf("d(a,a) = %f", d)
	}
	if d := ix.SemanticDistance(a, b); d <= 0 || d > 1 {
		t.Fatalf("d(a,b) = %f", d)
	}
}

func TestInconsistencyDetectionEndToEnd(t *testing.T) {
	// The paper's full pipeline: corpus with planted conflicts →
	// SemTree index → target-triple k-NN → confirmed inconsistencies.
	g := synth.New(synth.Config{Seed: 41, Docs: 20, InconsistencyRate: 0.4}, nil)
	bundle := g.Corpus()
	ix, err := Build(bundle.Corpus.Store, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	reg := vocab.DefaultRegistry()
	checker := reqcheck.NewChecker(ix, reg)
	found := 0
	for _, p := range bundle.Planted {
		req := bundle.Corpus.Store.MustGet(p.Requirement)
		cands, ok, err := checker.Candidates(context.Background(), req, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		for _, id := range checker.Confirmed(req, cands, bundle.Corpus.Store) {
			if id == p.Conflict {
				found++
				break
			}
		}
	}
	if found < len(bundle.Planted)*7/10 {
		t.Fatalf("end-to-end found %d/%d planted conflicts", found, len(bundle.Planted))
	}
}

func TestCustomMeasureAndWeights(t *testing.T) {
	g := synth.New(synth.Config{Seed: 55}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(200) {
		store.Add(tp, triple.Provenance{})
	}
	for _, measure := range []string{"path", "resnik", "lin", "jiangconrath", "leacockchodorow"} {
		ix, err := Build(store, Options{
			Measure: measure,
			Weights: semdist.Weights{Alpha: 0.2, Beta: 0.5, Gamma: 0.3},
		})
		if err != nil {
			t.Fatalf("Build(%s): %v", measure, err)
		}
		if _, err := ix.Searcher(WithK(3)).Search(context.Background(), tr("('OBSW001', Fun:accept_cmd, CmdType:start-up)")); err != nil {
			t.Fatalf("Search(%s): %v", measure, err)
		}
		ix.Close()
	}
}
