package triple_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"semtree/internal/column"
	"semtree/internal/synth"
	"semtree/internal/triple"
)

// modelTerms is a small pool, so random triples repeat terms, holding
// every pair the dictionary must keep apart: "" against "std" as a
// prefix, a LitType set on a concept, a literal and a concept of one
// spelling, and the zero Term.
func modelTerms() []triple.Term {
	return []triple.Term{
		{},
		triple.NewConcept("", "send_msg"),
		{Kind: triple.Concept, Prefix: "", Value: "send_msg"},
		{Kind: triple.Concept, Prefix: "std", Value: "send_msg", LitType: triple.LitInt},
		triple.NewConcept("Fun", "send_msg"),
		triple.NewConcept("Fun", ""),
		triple.NewLiteral("send_msg"),
		triple.NewLiteral("42"),
		triple.NewString("42"),
		triple.NewLiteral("4.5"),
		triple.NewLiteral("true"),
		triple.NewLiteral(""),
		{Kind: triple.Literal, Prefix: "Fun", Value: "send_msg"},
	}
}

// TestStoreMatchesSliceModel drives random operation sequences against
// the store and a plain []Entry, and requires == on everything the
// store returns. Besides provenance drawn at random, which almost never
// continues a run, the writes continue the last entry's run or break
// it: counting batches through AddAll and AddFrom, Add repeated under
// one provenance, and AddEntries batches that count or repeat and then
// break off — with Seq near math.MaxInt, so counting wraps.
func TestStoreMatchesSliceModel(t *testing.T) {
	terms := modelTerms()
	names := []string{"", "A", "B", "std", "A "}
	docs := append([]string{"unknown", "Fun"}, names...) // ByDoc arguments: two never stored
	seqs := []int{0, 1, -1, -7, math.MaxInt64, math.MinInt64, 1 << 40}
	// Terms the text notation carries unchanged, for AddFrom.
	text := []triple.Term{triple.NewConcept("Fun", "send_msg"), triple.NewConcept("CmdType", "start-up"), triple.NewLiteral("42"), triple.NewString("OBSW001")}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func() triple.Triple {
			return triple.New(terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))])
		}
		prov := func() triple.Provenance {
			seq := seqs[rng.Intn(len(seqs))]
			if rng.Intn(2) == 0 {
				seq = rng.Int()
			}
			return triple.Provenance{Doc: names[rng.Intn(len(names))], Section: names[rng.Intn(len(names))], Seq: seq}
		}
		s := triple.NewStore()
		var model []triple.Entry
		// next returns the provenance of the entry after the model's
		// last under step — or, now and then, a fresh one close to
		// the wrap.
		next := func(step int) triple.Provenance {
			if len(model) == 0 || rng.Intn(4) == 0 {
				return triple.Provenance{Doc: names[rng.Intn(len(names))], Section: names[rng.Intn(len(names))], Seq: math.MaxInt - rng.Intn(4)}
			}
			p := model[len(model)-1].Prov
			p.Seq += step
			return p
		}
		either := func() triple.Provenance {
			if rng.Intn(2) == 0 {
				return prov()
			}
			return next(rng.Intn(2))
		}
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(11); op {
			case 0: // Add, repeated under one provenance
				p := either()
				for range 1 + rng.Intn(4) {
					e := triple.Entry{Triple: pick(), Prov: p}
					if got := s.Add(e.Triple, e.Prov); got != triple.ID(len(model)) {
						t.Fatalf("seed %d step %d: Add returned %d, model has %d", seed, step, got, len(model))
					}
					model = append(model, e)
				}
			case 1:
				ts, p := make([]triple.Triple, rng.Intn(6)), either()
				for i := range ts {
					ts[i] = pick()
				}
				if got := s.AddAll(ts, p); got != triple.ID(len(model)) {
					t.Fatalf("seed %d step %d: AddAll returned %d, model has %d", seed, step, got, len(model))
				}
				for i, tr := range ts {
					model = append(model, triple.Entry{Triple: tr, Prov: triple.Provenance{Doc: p.Doc, Section: p.Section, Seq: p.Seq + i}})
				}
			case 2:
				es := make([]triple.Entry, rng.Intn(6))
				for i := range es {
					es[i] = triple.Entry{Triple: pick(), Prov: prov()}
				}
				if got := s.AddEntries(es); got != triple.ID(len(model)) {
					t.Fatalf("seed %d step %d: AddEntries returned %d, model has %d", seed, step, got, len(model))
				}
				model = append(model, es...)
			case 3:
				for _, id := range []triple.ID{triple.ID(rng.Intn(len(model) + 3)), 1 << 63, math.MaxUint64} {
					got, ok := s.Get(id)
					var want triple.Entry
					if id < triple.ID(len(model)) {
						want = model[id]
					}
					if ok != (id < triple.ID(len(model))) || got != want {
						t.Fatalf("seed %d step %d: Get(%d) = %+v, %v; model %+v", seed, step, id, got, ok, want)
					}
				}
			case 4:
				stop, n := rng.Intn(len(model)+2), 0
				s.Each(func(id triple.ID, e triple.Entry) bool {
					if id != triple.ID(n) || e != model[n] {
						t.Fatalf("seed %d step %d: Each visit %d = (%d, %+v), model %+v", seed, step, n, id, e, model[n])
					}
					n++
					return n < stop
				})
				if want := min(max(stop, 1), len(model)); n != want {
					t.Fatalf("seed %d step %d: Each visited %d entries, want %d", seed, step, n, want)
				}
			case 5:
				got := s.Triples()
				if len(got) != len(model) {
					t.Fatalf("seed %d step %d: Triples has %d, model %d", seed, step, len(got), len(model))
				}
				for i := range got {
					if got[i] != model[i].Triple {
						t.Fatalf("seed %d step %d: Triples[%d] = %+v, model %+v", seed, step, i, got[i], model[i].Triple)
					}
				}
			case 6:
				doc := docs[rng.Intn(len(docs))]
				var want []triple.ID
				for i, e := range model {
					if e.Prov.Doc == doc {
						want = append(want, triple.ID(i))
					}
				}
				if got := s.ByDoc(doc); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: ByDoc(%q) = %v, model %v", seed, step, doc, got, want)
				}
			case 7:
				if s.Len() != len(model) {
					t.Fatalf("seed %d step %d: Len = %d, model %d", seed, step, s.Len(), len(model))
				}
			case 8:
				dict, ids := s.Encoded()
				if len(ids) != len(model) {
					t.Fatalf("seed %d step %d: Encoded has %d triples, model %d", seed, step, len(ids), len(model))
				}
				for i, id := range ids {
					if got := triple.New(dict[id[0]], dict[id[1]], dict[id[2]]); got != model[i].Triple {
						t.Fatalf("seed %d step %d: Encoded[%d] decodes to %+v, model %+v", seed, step, i, got, model[i].Triple)
					}
				}
				for ord, term := range dict {
					if first := slices.Index(dict, term); first != ord {
						t.Fatalf("seed %d step %d: dictionary entries %d and %d are both %+v", seed, step, first, ord, term)
					}
				}
			case 9: // AddAll's batch as text
				ts, p := make([]triple.Triple, rng.Intn(6)), either()
				for i := range ts {
					ts[i] = triple.New(text[rng.Intn(len(text))], text[rng.Intn(len(text))], text[rng.Intn(len(text))])
				}
				var buf strings.Builder
				if err := triple.WriteAll(&buf, ts); err != nil {
					t.Fatal(err)
				}
				first, n, err := s.AddFrom(strings.NewReader(buf.String()), p)
				if err != nil || first != triple.ID(len(model)) || n != len(ts) {
					t.Fatalf("seed %d step %d: AddFrom = %d, %d, %v; model has %d, batch %d", seed, step, first, n, err, len(model), len(ts))
				}
				for i, tr := range ts {
					model = append(model, triple.Entry{Triple: tr, Prov: triple.Provenance{Doc: p.Doc, Section: p.Section, Seq: p.Seq + i}})
				}
			case 10: // AddEntries counting or repeating, then breaking off
				d := rng.Intn(2)
				p := next(d)
				es := make([]triple.Entry, 1+rng.Intn(8))
				cut := rng.Intn(len(es) + 1)
				for i := range es {
					if i == cut {
						p = prov()
						if i > 0 && rng.Intn(2) == 0 { // the same section, a Seq off the count
							p.Doc, p.Section, p.Seq = es[i-1].Prov.Doc, es[i-1].Prov.Section, es[i-1].Prov.Seq+2
						}
					}
					es[i] = triple.Entry{Triple: pick(), Prov: p}
					p.Seq += d
				}
				if got := s.AddEntries(es); got != triple.ID(len(model)) {
					t.Fatalf("seed %d step %d: AddEntries returned %d, model has %d", seed, step, got, len(model))
				}
				model = append(model, es...)
			}
		}
	}
}

// TestStoreReadersRaceNewTerms runs every reader, the Build view
// included, beside writers whose every triple brings a term the
// dictionary has not seen, so the tables keep reallocating under the
// readers. Each writer's Add opens a run its AddAll continues when no
// other writer came between, so the open run grows and takes its step
// under the readers too. Run with -race.
func TestStoreReadersRaceNewTerms(t *testing.T) {
	const perWriter = 6000
	s := triple.NewStore()
	fresh := func(w, i int) triple.Triple {
		return triple.New(triple.NewString(fmt.Sprintf("unit-%d-%d", w, i)), triple.NewConcept("Fun", "accept_cmd"), triple.NewLiteral(strconv.Itoa(i)))
	}
	s.Add(fresh(-1, 0), triple.Provenance{Doc: "w0"})

	var writers, readers sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			doc := fmt.Sprintf("w%d", w)
			for i := 0; i < perWriter; i += 3 {
				s.Add(fresh(w, i), triple.Provenance{Doc: doc, Section: fmt.Sprint(i), Seq: i})
				s.AddAll([]triple.Triple{fresh(w, i+1), fresh(w, i+2)}, triple.Provenance{Doc: doc, Section: fmt.Sprint(i), Seq: i + 1})
			}
		}()
	}
	read := func(fn func()) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for ok := true; ok; ok = !done.Load() {
				fn()
				runtime.Gosched() // 2 CPUs and 7 goroutines: let a writer in
			}
		}()
	}
	read(func() {
		n := s.Len()
		if e, ok := s.Get(triple.ID(n - 1)); !ok || e.Triple.Predicate.Value != "accept_cmd" {
			t.Errorf("Get(%d) below Len = %+v, %v", n-1, e, ok)
		}
		id := triple.ID(rand.Intn(n))
		if e, _ := s.Get(id); e.Triple.Object.Value != strconv.Itoa(e.Prov.Seq) {
			t.Errorf("Get(%d) pairs object %q with seq %d", id, e.Triple.Object.Value, e.Prov.Seq)
		}
	})
	read(func() {
		n := 0
		s.Each(func(id triple.ID, e triple.Entry) bool {
			if e.Triple.Object.Value != strconv.Itoa(e.Prov.Seq) {
				t.Errorf("Each: entry %d pairs object %q with seq %d", id, e.Triple.Object.Value, e.Prov.Seq)
			}
			n++
			return true
		})
		if n == 0 {
			t.Error("Each visited nothing")
		}
	})
	read(func() {
		for _, id := range s.ByDoc("w1") {
			if e, _ := s.Get(id); e.Prov.Doc != "w1" {
				t.Errorf("ByDoc(w1) returned %d, stored under %q", id, e.Prov.Doc)
			}
		}
	})
	read(func() {
		// What Save does: write the first n triples from a view.
		n := s.Len()
		var buf bytes.Buffer
		w := column.NewWriter(&buf)
		s.WriteColumns(w, n)
		if err := w.Flush(); err != nil {
			t.Error(err)
			return
		}
		got, err := triple.ReadStore(column.NewReader(&buf))
		if err != nil {
			t.Error(err)
			return
		}
		if got.Len() != n {
			t.Errorf("read back %d of %d triples", got.Len(), n)
		}
		got.Each(func(id triple.ID, e triple.Entry) bool {
			if e.Triple.Object.Value != strconv.Itoa(e.Prov.Seq) {
				t.Errorf("written entry %d pairs object %q with seq %d", id, e.Triple.Object.Value, e.Prov.Seq)
			}
			return true
		})
	})
	read(func() {
		// What Build does: take the view, then read all of it with no
		// lock while the store moves on.
		dict, ids := s.Encoded()
		now := s.Triples()
		for i, id := range ids {
			if got := triple.New(dict[id[0]], dict[id[1]], dict[id[2]]); got != now[i] {
				t.Errorf("view triple %d = %+v, store has %+v", i, got, now[i])
				return
			}
		}
	})
	writers.Wait()
	done.Store(true)
	readers.Wait()
	if want := 1 + 3*perWriter; s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}

// retained reports the heap bytes per triple that build's result pins,
// over and above whatever is live when it is called.
func retained(n int, build func() any) float64 {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	kept := build()
	after := heap()
	runtime.KeepAlive(kept)
	return (float64(after) - float64(before)) / float64(n)
}

func plainEntries(ts []triple.Triple) any {
	es := make([]triple.Entry, len(ts))
	for i, t := range ts {
		es[i] = triple.Entry{Triple: t, Prov: triple.Provenance{Doc: "synth", Seq: i}}
	}
	return es
}

func filledStore(ts []triple.Triple) any {
	s := triple.NewStore()
	s.AddAll(ts, triple.Provenance{Doc: "synth"})
	return s
}

// TestStoreFootprint gates what the dictionary and run encodings are
// for: the benchmark's corpus, filled as one run, costs at most 16 bytes
// of heap per stored triple (a plain []Entry costs 184). The runs' worst
// case — every triple opens its own, as the quickstart example's one
// section per triple does — costs at most 112, its run record and its
// section's table entry included. The dictionary's worst case — no
// term ever repeats, so every triple also pays for three dictionary
// entries — is measured beside them and logged, not gated.
func TestStoreFootprint(t *testing.T) {
	const n = 100000
	corpus := synth.New(synth.Config{Seed: 1, Actors: 200}, nil).Triples(n)
	got := retained(n, func() any { return filledStore(corpus) })
	t.Logf("synth corpus, %d triples: store %.1f B/triple, []Entry %.1f B/triple",
		n, got, retained(n, func() any { return plainEntries(corpus) }))
	if got > 16 {
		t.Errorf("store retains %.1f B per triple of the synth corpus, want <= 16", got)
	}

	sections := make([]string, n) // built outside the measurement, as a caller's would be
	for i := range sections {
		sections[i] = fmt.Sprint("REQ-", i+1)
	}
	perSection := retained(n, func() any {
		s := triple.NewStore()
		for i, tp := range corpus {
			s.Add(tp, triple.Provenance{Doc: "synth", Section: sections[i]})
		}
		return s
	})
	t.Logf("synth corpus, one section per triple: store %.1f B/triple", perSection)
	if perSection > 112 {
		t.Errorf("store retains %.1f B per triple with one section per triple, want <= 112", perSection)
	}
	runtime.KeepAlive(corpus)
	runtime.KeepAlive(sections)

	const m = 20000
	distinct := make([]triple.Triple, m)
	for i := range distinct {
		distinct[i] = triple.New(triple.NewString(fmt.Sprint("s", i)), triple.NewString(fmt.Sprint("p", i)), triple.NewString(fmt.Sprint("o", i)))
	}
	t.Logf("all-distinct corpus, %d triples: store %.1f B/triple, []Entry %.1f B/triple",
		m, retained(m, func() any { return filledStore(distinct) }), retained(m, func() any { return plainEntries(distinct) }))
	runtime.KeepAlive(distinct)
}

// BenchmarkStoreFill measures filling a store with the benchmark's
// corpus in one AddAll, as its workloads and semtree-serve do.
func BenchmarkStoreFill(b *testing.B) {
	const n = 100000
	corpus := synth.New(synth.Config{Seed: 1, Actors: 200}, nil).Triples(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filledStore(corpus)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/triple")
	b.ReportMetric(retained(n, func() any { return filledStore(corpus) }), "B/triple")
	runtime.KeepAlive(corpus)
}
