package semtree

import (
	"context"
	"testing"

	"semtree/internal/synth"
	"semtree/internal/triple"
)

func TestParsePattern(t *testing.T) {
	p, err := ParsePattern("(?, Fun:accept_cmd, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if p.Subject != nil || p.Object != nil || p.Predicate == nil {
		t.Fatalf("pattern = %+v", p)
	}
	if p.Predicate.Value != "accept_cmd" || p.Bound() != 1 {
		t.Fatalf("predicate = %v, bound = %d", p.Predicate, p.Bound())
	}
	if got := p.String(); got != "(?, Fun:accept_cmd, ?)" {
		t.Fatalf("String = %q", got)
	}
	for _, bad := range []string{"(?, ?)", "(a, b, c, d)", "(:x, ?, ?)", "('a, ?, ?)"} {
		if _, err := ParsePattern(bad); err == nil {
			t.Errorf("ParsePattern(%q): expected error", bad)
		}
	}
	// Positions split as ParseTriple splits terms: a quoted comma stays
	// inside its literal.
	p, err = ParsePattern("('a, b', ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if p.Subject == nil || *p.Subject != triple.NewLiteral("a, b") || p.Predicate != nil || p.Object != nil {
		t.Fatalf("pattern = %v", p)
	}
}

func patternIndex(t *testing.T) *Index {
	t.Helper()
	store := triple.NewStore()
	lines := []string{
		"('OBSW001', Fun:accept_cmd, CmdType:start-up)",
		"('OBSW001', Fun:accept_cmd, CmdType:shutdown)",
		"('OBSW002', Fun:accept_cmd, CmdType:start-up)",
		"('OBSW001', Fun:block_cmd, CmdType:start-up)",
		"('OBSW001', Fun:send_msg, MsgType:housekeeping)",
		"('PDU9', Fun:power_on, 'heater_1')",
	}
	for _, l := range lines {
		tp, err := triple.ParseTriple(l)
		if err != nil {
			t.Fatal(err)
		}
		store.Add(tp, triple.Provenance{})
	}
	// Pad with background triples so the tree is non-trivial.
	g := synth.New(synth.Config{Seed: 71}, nil)
	for _, tp := range g.Triples(300) {
		store.Add(tp, triple.Provenance{})
	}
	ix, err := Build(store, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func TestMatchPatternExactPredicate(t *testing.T) {
	ix := patternIndex(t)
	p, _ := ParsePattern("('OBSW001', Fun:accept_cmd, ?)")
	got, err := ix.MatchPattern(context.Background(), p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d matches, want 2: %v", len(got), got)
	}
	for _, m := range got {
		if m.Triple.Subject.Value != "OBSW001" || m.Triple.Predicate.Value != "accept_cmd" {
			t.Fatalf("non-matching result %v", m.Triple)
		}
		if m.Dist != 0 {
			t.Fatalf("exact match with dist %f", m.Dist)
		}
	}
}

func TestMatchPatternWithRadius(t *testing.T) {
	// Radius on bound positions: accept_cmd within predicate distance
	// should also pull in block_cmd/reject_cmd style close predicates
	// for the same subject/object.
	ix := patternIndex(t)
	p, _ := ParsePattern("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	got, err := ix.MatchPattern(context.Background(), p, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("radius query too narrow: %v", got)
	}
	if got[0].Dist != 0 || !got[0].Triple.Predicate.Equal(triple.NewConcept("Fun", "accept_cmd")) {
		t.Fatalf("exact match not first: %v", got[0])
	}
	foundBlock := false
	for _, m := range got {
		if m.Triple.Predicate.Value == "block_cmd" && m.Triple.Subject.Value == "OBSW001" {
			foundBlock = true
		}
	}
	if !foundBlock {
		t.Fatalf("near-predicate triple not found within radius: %v", got)
	}
}

func TestMatchPatternLimit(t *testing.T) {
	ix := patternIndex(t)
	p, _ := ParsePattern("(?, Fun:accept_cmd, ?)")
	all, err := ix.MatchPattern(context.Background(), p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 3 {
		t.Fatalf("predicate-only pattern found %d, want >= 3", len(all))
	}
	limited, err := ix.MatchPattern(context.Background(), p, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 2 {
		t.Fatalf("limit ignored: %d results", len(limited))
	}
}

func TestMatchPatternValidation(t *testing.T) {
	ix := patternIndex(t)
	if _, err := ix.MatchPattern(context.Background(), Pattern{}, 0.1, 0); err == nil {
		t.Fatal("all-wildcard pattern accepted")
	}
	p, _ := ParsePattern("(?, Fun:accept_cmd, ?)")
	if _, err := ix.MatchPattern(context.Background(), p, -1, 0); err == nil {
		t.Fatal("negative radius accepted")
	}
}

func TestExactFactorImprovesRanking(t *testing.T) {
	g := synth.New(synth.Config{Seed: 73}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(700) {
		store.Add(tp, triple.Provenance{})
	}
	ix, err := Build(store, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	qGen := synth.New(synth.Config{Seed: 74}, nil)
	for q := 0; q < 20; q++ {
		query := qGen.RandomTriple()
		res, err := ix.Searcher(WithK(5), WithExactFactor(4)).Search(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		exact := res.Matches
		if len(exact) == 0 {
			t.Fatal("no results")
		}
		// Results carry true semantic distances, sorted ascending.
		for i := 1; i < len(exact); i++ {
			if exact[i].Dist < exact[i-1].Dist {
				t.Fatalf("exact rerank not sorted: %v", exact)
			}
		}
		for _, m := range exact {
			if got := ix.SemanticDistance(query, m.Triple); got != m.Dist {
				t.Fatalf("reranked dist %f != metric %f", m.Dist, got)
			}
		}
	}
}
