package semdist

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"semtree/internal/synth"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// referenceTermDistance is TermDistance as it was before terms were
// resolved once: string dispatch, a registry and two name lookups per
// concept pair, the measure called directly, the reference Levenshtein.
// The resolved kernel must reproduce it bit for bit.
func referenceTermDistance(reg *vocab.Registry, measure ConceptMeasure, numeric bool, a, b triple.Term) float64 {
	if a.Equal(b) {
		return 0
	}
	if a.IsLiteral() && b.IsLiteral() && a.LitType == b.LitType {
		if numeric && (a.LitType == triple.LitInt || a.LitType == triple.LitFloat) {
			return numericDistance(a.Value, b.Value)
		}
		return referenceNormalized(a.Value, b.Value)
	}
	if a.IsConcept() && b.IsConcept() && a.Prefix == b.Prefix {
		if v, ok := reg.Get(a.Prefix); ok {
			ca, okA := v.Lookup(a.Value)
			cb, okB := v.Lookup(b.Value)
			if okA && okB {
				if ca > cb {
					ca, cb = cb, ca // the matrix is filled from measure(i, j), i < j
				}
				return measure(v, ca, cb)
			}
		}
	}
	return referenceNormalized(a.Value, b.Value)
}

// mixedTerms covers every dispatch branch: literals of each type,
// concepts of several vocabularies, synonyms, unknown names, unknown
// prefixes, a raw empty prefix, and surface forms shared across kinds.
func mixedTerms() []triple.Term {
	return []triple.Term{
		triple.NewLiteral("OBSW001"), triple.NewLiteral("OBSW002"), triple.NewLiteral("résumé"),
		triple.NewLiteral(""), triple.NewLiteral("100"), triple.NewLiteral("101"), triple.NewLiteral("-7"),
		triple.NewLiteral("2.5"), triple.NewLiteral("2.50"), triple.NewLiteral("true"), triple.NewLiteral("false"),
		triple.NewString("100"), triple.NewString("accept_cmd"),
		triple.NewConcept("Fun", "accept_cmd"), triple.NewConcept("Fun", "block_cmd"),
		triple.NewConcept("Fun", "send_msg"), triple.NewConcept("Fun", "no_such_function"),
		triple.NewConcept("CmdType", "start-up"), triple.NewConcept("CmdType", "shutdown"),
		triple.NewConcept("MsgType", "fault_alert"), triple.NewConcept("InType", "accept_cmd"),
		triple.NewConcept("Nope", "accept_cmd"), triple.NewConcept("Nope", "block_cmd"),
		triple.NewConcept("", "entity"), {Kind: triple.Concept, Value: "entity"},
	}
}

func TestResolvedKernelMatchesStringDispatch(t *testing.T) {
	terms := mixedTerms()
	for _, name := range MeasureNames() {
		measure, _ := MeasureByName(name)
		for _, numeric := range []bool{false, true} {
			reg := vocab.DefaultRegistry()
			m := MustNew(reg, Options{Concept: measure, NumericLiterals: numeric})
			for _, a := range terms {
				for _, b := range terms {
					want := referenceTermDistance(reg, measure, numeric, a, b)
					if got := m.TermDistance(a, b); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s numeric=%v: TermDistance(%v, %v) = %v, string dispatch gives %v",
							name, numeric, a, b, got, want)
					}
				}
			}
		}
	}
}

// TestCorpusRowMatchesDistance: a one-to-all row over a store's
// dictionary encoding is the same bits as n Distance calls, argument
// order included.
func TestCorpusRowMatchesDistance(t *testing.T) {
	terms := mixedTerms()
	var triples []triple.Triple
	for i := range terms {
		triples = append(triples, triple.New(terms[i], terms[(i*7+3)%len(terms)], terms[(i*11+5)%len(terms)]))
	}
	triples = append(triples, synth.New(synth.Config{Seed: 3}, nil).Triples(300)...)
	store := triple.NewStore()
	store.AddAll(triples, triple.Provenance{})
	terms, ids := store.Encoded()
	for _, opts := range []Options{{}, {NumericLiterals: true}, {Concept: Lin}} {
		m := MustNew(vocab.DefaultRegistry(), opts)
		c := NewCorpus(m, terms, ids)
		row := make([]float64, c.Len())
		for from := range triples {
			c.Row(from)(0, row)
			for i, got := range row {
				if want := m.Distance(triples[from], triples[i]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%+v: row(%d)[%d] = %v, Distance = %v", opts, from, i, got, want)
				}
			}
			if got := c.Triple(from).Unresolved(); got != triples[from] {
				t.Fatalf("corpus triple %d = %v, added %v", from, got, triples[from])
			}
		}
	}
}

// TestCorpusRowFromOverReordering: a corpus Over a reordered subset of
// a store's rows holds those triples, in that order, and RowFrom a
// triple outside it writes the bits of ResolvedDistance from that
// triple — the row a projection under fixed pivots scans.
func TestCorpusRowFromOverReordering(t *testing.T) {
	store := triple.NewStore()
	store.AddAll(synth.New(synth.Config{Seed: 9}, nil).Triples(400), triple.Provenance{})
	terms, ids := store.Encoded()
	var sub [][3]triple.TermID
	for i := len(ids) - 1; i >= 0; i -= 3 {
		sub = append(sub, ids[i])
	}
	outside := synth.New(synth.Config{Seed: 10}, nil).Triples(20)
	for _, opts := range []Options{{}, {NumericLiterals: true}, {Concept: Lin}} {
		m := MustNew(vocab.DefaultRegistry(), opts)
		c := NewCorpus(m, terms, nil).Over(sub)
		if c.Len() != len(sub) {
			t.Fatalf("corpus over %d rows has %d", len(sub), c.Len())
		}
		row := make([]float64, c.Len())
		for _, x := range outside {
			a := m.Resolve(x)
			c.RowFrom(a)(0, row)
			for i, got := range row {
				want := m.ResolvedDistance(a, c.Triple(i))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%+v: RowFrom(%v)[%d] = %v, ResolvedDistance = %v", opts, x, i, got, want)
				}
				if e, _ := store.Get(triple.ID(len(ids) - 1 - 3*i)); c.Triple(i).Unresolved() != e.Triple {
					t.Fatalf("corpus triple %d = %v, want %v", i, c.Triple(i).Unresolved(), e.Triple)
				}
			}
		}
	}
}

// TestCorpusFillsDisjointRangesConcurrently: one Row preparation's fill,
// called from several goroutines on disjoint ranges, writes the bits a
// single whole-row fill writes (run under -race).
func TestCorpusFillsDisjointRangesConcurrently(t *testing.T) {
	store := triple.NewStore()
	store.AddAll(synth.New(synth.Config{Seed: 5}, nil).Triples(3000), triple.Provenance{})
	terms, ids := store.Encoded()
	c := NewCorpus(MustNew(vocab.DefaultRegistry(), Options{}), terms, ids)
	n := c.Len()
	whole, parts := make([]float64, n), make([]float64, n)
	for _, from := range []int{0, 17, n / 2, n - 1} {
		c.Row(from)(0, whole)
		fill := c.Row(from)
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += 701 {
			wg.Add(1)
			go func(lo int) {
				defer wg.Done()
				fill(lo, parts[lo:min(lo+701, n)])
			}(lo)
		}
		wg.Wait()
		for i := range whole {
			if math.Float64bits(parts[i]) != math.Float64bits(whole[i]) {
				t.Fatalf("row(%d)[%d]: %v from a range fill, %v from the whole row", from, i, parts[i], whole[i])
			}
		}
	}
}

// TestRegisterAfterNewIsRefused pins the concurrency contract's one
// rule: a metric resolves against the vocabularies registered when it
// was built, so a later registration is an error, not a silent fall to
// surface-form comparison.
func TestRegisterAfterNewIsRefused(t *testing.T) {
	reg := vocab.NewRegistry(vocab.Functions())
	if err := reg.Register(vocab.CommandTypes()); err != nil {
		t.Fatalf("register before New: %v", err)
	}
	m := MustNew(reg, Options{})
	if err := reg.Register(vocab.MessageTypes()); err == nil {
		t.Fatal("Register after New succeeded; the metric cannot see that vocabulary")
	}
	// What was registered resolves through the taxonomy, not Levenshtein.
	a, b := triple.NewConcept("CmdType", "start-up"), triple.NewConcept("CmdType", "shutdown")
	if got, want := m.TermDistance(a, b), WuPalmer(vocab.CommandTypes(), cid(t, vocab.CommandTypes(), "start-up"), cid(t, vocab.CommandTypes(), "shutdown")); !close(got, want) {
		t.Fatalf("CmdType pair = %v, want Wu-Palmer %v", got, want)
	}
}

// TestMetricConcurrentUse hammers one metric from 8 goroutines (run
// under -race): every method only reads, so every goroutine must see
// the single-threaded answers.
func TestMetricConcurrentUse(t *testing.T) {
	m := MustNew(vocab.DefaultRegistry(), Options{})
	pool := synth.New(synth.Config{Seed: 9}, nil).Triples(64)
	want := make([]float64, len(pool))
	for i := range pool {
		want[i] = m.Distance(pool[i], pool[(i+1)%len(pool)])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				i := (g*31 + round) % len(pool)
				a, b := pool[i], pool[(i+1)%len(pool)]
				d := m.Distance(a, b)
				if round%2 == 1 {
					d = m.ResolvedDistance(m.Resolve(a), m.Resolve(b))
				}
				if math.Float64bits(d) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d: distance %d = %v, want %v", g, i, d, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNovelLiteralsRetainNothing is the regression test for the literal
// cache that grew by one entry per distinct (query, stored) pair for
// the life of the metric: 50k never-seen literals go through Distance
// with no allocation per call and no heap left behind.
func TestNovelLiteralsRetainNothing(t *testing.T) {
	m := MustNew(vocab.DefaultRegistry(), Options{})
	stored := tr("'OBSW001'", "Fun:accept_cmd", "'battery_bank'")
	const novel = 50000
	queries := make([]triple.Triple, novel)
	for i := range queries {
		queries[i] = triple.New(triple.NewString(fmt.Sprintf("UNIT%07d", i)), stored.Predicate, triple.NewString(fmt.Sprintf("area_%d", i)))
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() { m.Distance(queries[i%novel], stored); i++ }); n != 0 {
		t.Errorf("Distance on a novel literal: %v allocs per call, want 0", n)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for _, q := range queries {
		m.Distance(q, stored)
	}
	if after := heap(); after > before+256<<10 {
		t.Errorf("heap grew from %d to %d bytes over %d novel literals", before, after, novel)
	}
	runtime.KeepAlive(queries)
}
