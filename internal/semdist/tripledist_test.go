package semdist

import (
	"math"
	"math/rand"
	"testing"

	"semtree/internal/triple"
	"semtree/internal/vocab"
)

func testMetric(t *testing.T, opts Options) *Metric {
	t.Helper()
	m, err := New(vocab.DefaultRegistry(), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func tr(subj, pred, obj string) triple.Triple {
	p, err := triple.ParseTriple("(" + subj + ", " + pred + ", " + obj + ")")
	if err != nil {
		panic(err)
	}
	return p
}

func TestWeightsValidate(t *testing.T) {
	if err := DefaultWeights.Validate(); err != nil {
		t.Fatalf("DefaultWeights invalid: %v", err)
	}
	bad := []Weights{
		{0.5, 0.5, 0.5},
		{-0.2, 0.6, 0.6},
		{1, 1, -1},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("Weights %+v should be invalid", w)
		}
	}
}

func TestNewRejectsNilRegistry(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("expected error for nil registry")
	}
}

func TestDistanceIdentity(t *testing.T) {
	m := testMetric(t, Options{})
	a := tr("'OBSW001'", "Fun:accept_cmd", "CmdType:start-up")
	if d := m.Distance(a, a); d != 0 {
		t.Fatalf("d(a,a) = %f, want 0", d)
	}
}

func TestDistancePaperScenario(t *testing.T) {
	// The motivating example (§II): the target triple
	// (OBSW001, block_cmd, start-up) must be closer to
	// (OBSW001, accept_cmd, start-up) than to unrelated triples,
	// which is what makes k-NN retrieval of inconsistencies work.
	m := testMetric(t, Options{})
	requirement := tr("'OBSW001'", "Fun:accept_cmd", "CmdType:start-up")
	target := tr("'OBSW001'", "Fun:block_cmd", "CmdType:start-up")
	unrelatedPred := tr("'OBSW001'", "Fun:send_msg", "CmdType:start-up")
	unrelatedAll := tr("'PDU9'", "Fun:send_msg", "MsgType:housekeeping")

	dTarget := m.Distance(target, requirement)
	dPred := m.Distance(target, unrelatedPred)
	dAll := m.Distance(target, unrelatedAll)
	if dTarget >= dPred {
		t.Errorf("antonym-swap distance %f not < unrelated-predicate %f", dTarget, dPred)
	}
	if dPred >= dAll {
		t.Errorf("same-subject distance %f not < fully-unrelated %f", dPred, dAll)
	}
}

func TestDistanceSymmetryAndRange(t *testing.T) {
	m := testMetric(t, Options{})
	pool := []triple.Triple{
		tr("'OBSW001'", "Fun:accept_cmd", "CmdType:start-up"),
		tr("'OBSW001'", "Fun:block_cmd", "CmdType:start-up"),
		tr("'OBSW002'", "Fun:send_msg", "MsgType:housekeeping"),
		tr("'PDU9'", "Fun:acquire_in", "InType:pre-launch_phase"),
		tr("'42'", "Fun:store_data", "'3.5'"),
		tr("'OBSW001'", "computer", "on_state"),
	}
	for _, a := range pool {
		for _, b := range pool {
			d := m.Distance(a, b)
			if d < 0 || d > 1 {
				t.Fatalf("d(%v, %v) = %f out of range", a, b, d)
			}
			if d != m.Distance(b, a) {
				t.Fatalf("asymmetric distance for (%v, %v)", a, b)
			}
		}
	}
}

func TestTermDistanceDispatch(t *testing.T) {
	m := testMetric(t, Options{})
	t.Run("literal same type", func(t *testing.T) {
		d := m.TermDistance(triple.NewLiteral("OBSW001"), triple.NewLiteral("OBSW002"))
		if want := 1.0 / 7.0; !close(d, want) {
			t.Errorf("literal distance = %f, want %f", d, want)
		}
	})
	t.Run("concepts same vocabulary", func(t *testing.T) {
		a := triple.NewConcept("Fun", "accept_cmd")
		b := triple.NewConcept("Fun", "block_cmd")
		if d := m.TermDistance(a, b); !close(d, 1.0/3.0) {
			t.Errorf("concept distance = %f, want 1/3 (WuPalmer)", d)
		}
	})
	t.Run("synonym resolves to same concept", func(t *testing.T) {
		a := triple.NewConcept("Fun", "accept_cmd")
		b := triple.NewConcept("Fun", "accept_command")
		if d := m.TermDistance(a, b); d != 0 {
			t.Errorf("synonym distance = %f, want 0", d)
		}
	})
	t.Run("cross vocabulary falls back to string distance", func(t *testing.T) {
		a := triple.NewConcept("Fun", "accept_cmd")
		b := triple.NewConcept("CmdType", "accept_cmd")
		if d := m.TermDistance(a, b); d != 0 {
			t.Errorf("cross-vocab same-name = %f, want 0 (lexical fallback)", d)
		}
	})
	t.Run("unknown concept falls back", func(t *testing.T) {
		a := triple.NewConcept("Fun", "no_such_function")
		b := triple.NewConcept("Fun", "accept_cmd")
		d := m.TermDistance(a, b)
		if d <= 0 || d > 1 {
			t.Errorf("unknown-concept fallback = %f", d)
		}
	})
	t.Run("literal vs concept falls back", func(t *testing.T) {
		a := triple.NewLiteral("start-up")
		b := triple.NewConcept("CmdType", "start-up")
		if d := m.TermDistance(a, b); d != 0 {
			t.Errorf("surface-equal mixed terms = %f, want 0", d)
		}
	})
	t.Run("differently typed literals fall back", func(t *testing.T) {
		a := triple.NewLiteral("42") // int
		b := triple.NewString("42")  // string
		if d := m.TermDistance(a, b); d != 0 {
			t.Errorf("same lexical form, different types = %f, want 0 (lexical fallback)", d)
		}
	})
}

func TestNumericLiteralsOption(t *testing.T) {
	plain := testMetric(t, Options{})
	num := testMetric(t, Options{NumericLiterals: true})
	a, b := triple.NewLiteral("100"), triple.NewLiteral("101")
	dPlain := plain.TermDistance(a, b) // Levenshtein: 1/3
	dNum := num.TermDistance(a, b)     // 1/201
	if !close(dPlain, 1.0/3.0) {
		t.Errorf("plain = %f, want 1/3", dPlain)
	}
	if !close(dNum, 1.0/201.0) {
		t.Errorf("numeric = %f, want 1/201", dNum)
	}
}

// TestCacheConsistency: a concept pair loaded from the metric's matrix
// is the bits of the measure called directly.
func TestCacheConsistency(t *testing.T) {
	cached := testMetric(t, Options{})
	r := rand.New(rand.NewSource(5))
	v := vocab.Functions()
	for trial := 0; trial < 300; trial++ {
		i, j := vocab.ConceptID(r.Intn(v.Len())), vocab.ConceptID(r.Intn(v.Len()))
		a, b := triple.NewConcept("Fun", v.Name(i)), triple.NewConcept("Fun", v.Name(j))
		if dc, dr := cached.TermDistance(a, b), WuPalmer(v, i, j); math.Float64bits(dc) != math.Float64bits(dr) {
			t.Fatalf("matrix changed result for (%s, %s): %v vs %v", a.Value, b.Value, dc, dr)
		}
	}
}

func TestCustomWeights(t *testing.T) {
	m := testMetric(t, Options{Weights: Weights{Alpha: 1, Beta: 0, Gamma: 0}})
	a := tr("'X'", "Fun:accept_cmd", "CmdType:start-up")
	b := tr("'X'", "Fun:send_msg", "CmdType:shutdown")
	if d := m.Distance(a, b); d != 0 {
		t.Fatalf("alpha-only metric saw predicate/object difference: %f", d)
	}
}

// BenchmarkTripleDistanceCached loads concept pairs from the matrices
// built at New; literal pairs are computed afresh.
func BenchmarkTripleDistanceCached(b *testing.B) {
	m := MustNew(vocab.DefaultRegistry(), Options{})
	x := tr("'OBSW001'", "Fun:accept_cmd", "CmdType:start-up")
	y := tr("'OBSW002'", "Fun:block_cmd", "CmdType:shutdown")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, y)
	}
}
