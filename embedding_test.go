package semtree

// The embedding contract: semtree.Build runs FastMap over interned
// triples and one-to-all distance rows, and Insert, BulkAdd, Search and
// Load embed through pre-resolved pivots — and every coordinate that
// comes out is, bit for bit, the one the textbook path produces:
// generic fastmap.Build over the triples with Metric.Distance per pair,
// then Mapper.Map.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"semtree/internal/fastmap"
	"semtree/internal/semdist"
	"semtree/internal/synth"
	"semtree/internal/triple"
)

// handCorpus exercises every branch of the term dispatch inside a
// build: cross-kind pairs, concepts of different vocabularies,
// unresolvable names and prefixes, int/float/bool literals, duplicates.
func handCorpus() []triple.Triple {
	lit, con := triple.NewLiteral, triple.NewConcept
	return []triple.Triple{
		triple.New(lit("OBSW001"), con("Fun", "accept_cmd"), con("CmdType", "start-up")),
		triple.New(lit("OBSW002"), con("Fun", "block_cmd"), con("CmdType", "shutdown")),
		triple.New(lit("OBSW001"), con("Fun", "accept_cmd"), con("CmdType", "start-up")), // duplicate
		triple.New(lit("PDU009"), con("Fun", "send_msg"), con("MsgType", "fault_alert")),
		triple.New(lit("PDU010"), con("Fun", "send_msg"), lit("fault_alert")),             // literal vs concept object
		triple.New(con("Fun", "accept_cmd"), con("Fun", "read_data"), lit("log_area")),    // concept subject
		triple.New(lit("RCS021"), con("CmdType", "reboot"), con("Fun", "start_unit")),     // vocabularies swapped
		triple.New(lit("RCS022"), con("Fun", "no_such_function"), con("CmdType", "nope")), // unknown names
		triple.New(lit("RCS023"), con("Nope", "accept_cmd"), con("Nada", "start-up")),     // unknown prefixes
		triple.New(lit("EPS027"), con("", "entity"), con("InType", "accept_cmd")),
		triple.New(lit("100"), con("Fun", "open_valve"), lit("250")),
		triple.New(lit("101"), con("Fun", "close_valve"), lit("-7")),
		triple.New(lit("2.5"), con("Fun", "stop_unit"), lit("2.50")),
		triple.New(lit("3.75"), con("Fun", "clear_alarm"), lit("1e3")),
		triple.New(lit("true"), con("Fun", "reject_cmd"), lit("false")),
		triple.New(lit("false"), con("Fun", "reject_cmd"), lit("true")),
		triple.New(triple.NewString("100"), con("Fun", "open_valve"), triple.NewString("true")),
		triple.New(lit("résumé"), con("Fun", "read_data"), lit("日本語")),
		triple.New(lit(""), con("Fun", "read_data"), lit("")),
		triple.New(lit("TTC010"), con("MsgType", "fault_alert"), con("MsgType", "fault_alert")),
	}
}

// embedProbes are out-of-sample triples: fresh synthetic ones, literals
// no build has seen, and the hand corpus' odd terms recombined.
func embedProbes() []triple.Triple {
	probes := synth.New(synth.Config{Seed: 777}, nil).Triples(12)
	hand := handCorpus()
	for i := range hand {
		probes = append(probes, triple.New(hand[i].Subject, hand[(i+5)%len(hand)].Predicate, hand[(i+11)%len(hand)].Object))
	}
	return append(probes, triple.New(triple.NewLiteral("NEVER-SEEN-0001"), triple.NewConcept("Fun", "accept_cmd"), triple.NewLiteral("42")))
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// treeCoords returns the coordinates the index's tree holds, by ID.
func treeCoords(t *testing.T, ix *Index) map[uint64][]float64 {
	t.Helper()
	snap, err := ix.tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]float64, snap.Size)
	for pi := range snap.Parts {
		ps := &snap.Parts[pi]
		for slot := range ps.IDs {
			pt := ps.Point(int32(slot))
			out[pt.ID] = pt.Coords
		}
	}
	return out
}

// checkEmbeddingBitIdentity builds triples both ways under opts and
// compares everything an embedding consists of, then follows the index
// through Insert, BulkAdd and Save/Load.
func checkEmbeddingBitIdentity(t *testing.T, triples []triple.Triple, opts Options) {
	t.Helper()
	store := triple.NewStore()
	for _, tp := range triples {
		store.Add(tp, triple.Provenance{Doc: "D"})
	}
	ix, err := Build(store, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer ix.Close()

	metric, err := newMetric(nil, ix.opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, refCoords, err := fastmap.Build(triples, metric.Distance, fastmap.Options{Dims: opts.Dims, PivotIterations: opts.PivotIterations, Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}

	got, want := ix.mapper.Snapshot(), ref.Snapshot()
	if !sameBits(got.DAB, want.DAB) {
		t.Fatalf("pivot distances %v, reference %v", got.DAB, want.DAB)
	}
	for ax := range want.PivotA {
		if got.PivotA[ax].Unresolved() != want.PivotA[ax] || got.PivotB[ax].Unresolved() != want.PivotB[ax] {
			t.Fatalf("axis %d pivots (%v, %v), reference (%v, %v)", ax,
				got.PivotA[ax].Unresolved(), got.PivotB[ax].Unresolved(), want.PivotA[ax], want.PivotB[ax])
		}
		if !sameBits(got.CoordsA[ax], want.CoordsA[ax]) || !sameBits(got.CoordsB[ax], want.CoordsB[ax]) {
			t.Fatalf("axis %d pivot coordinates differ from the reference", ax)
		}
	}
	stored := treeCoords(t, ix)
	if len(stored) != len(triples) {
		t.Fatalf("tree holds %d points, corpus has %d", len(stored), len(triples))
	}
	for i, c := range refCoords {
		if !sameBits(stored[uint64(i)], c) {
			t.Fatalf("triple %d (%v) stored at %v, reference %v", i, triples[i], stored[uint64(i)], c)
		}
	}

	probes := embedProbes()
	for _, p := range probes {
		if g, w := ix.embed(p), ref.Map(p); !sameBits(g, w) {
			t.Fatalf("probe %v embeds to %v, reference %v", p, g, w)
		}
	}

	// Insert and BulkAdd store the same bits.
	half := len(probes) / 2
	var added []triple.ID
	for _, p := range probes[:half] {
		id, err := ix.Insert(p, triple.Provenance{Doc: "I"})
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, id)
	}
	items := make([]BulkItem, 0, len(probes)-half)
	for _, p := range probes[half:] {
		items = append(items, BulkItem{Triple: p, Prov: triple.Provenance{Doc: "B"}})
	}
	ids, err := ix.BulkAdd(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	added = append(added, ids...)
	stored = treeCoords(t, ix)
	for i, id := range added {
		if w := ref.Map(probes[i]); !sameBits(stored[uint64(id)], w) {
			t.Fatalf("ingested probe %v stored at %v, reference %v", probes[i], stored[uint64(id)], w)
		}
	}

	// A reloaded index embeds, and holds, the same bits.
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	for _, p := range probes {
		if g, w := loaded.embed(p), ref.Map(p); !sameBits(g, w) {
			t.Fatalf("after Load, probe %v embeds to %v, reference %v", p, g, w)
		}
	}
	reloaded := treeCoords(t, loaded)
	for id, c := range stored {
		if !sameBits(reloaded[id], c) {
			t.Fatalf("after Load, triple %d stored at %v, saved %v", id, reloaded[id], c)
		}
	}
}

func TestEmbeddingBitIdentity(t *testing.T) {
	synthCorpus := func(seed int64) []triple.Triple {
		return synth.New(synth.Config{Seed: seed}, nil).Triples(5000)
	}
	for _, seed := range []int64{1, 2, 3, 42} {
		t.Run(fmt.Sprintf("synth/seed=%d", seed), func(t *testing.T) {
			checkEmbeddingBitIdentity(t, synthCorpus(seed), Options{Seed: seed})
		})
	}
	hand := handCorpus()
	for _, measure := range semdist.MeasureNames() {
		for _, numeric := range []bool{false, true} {
			opts := Options{Seed: 1, Measure: measure, NumericLiterals: numeric}
			t.Run(fmt.Sprintf("hand/%s/numeric=%v", measure, numeric), func(t *testing.T) {
				checkEmbeddingBitIdentity(t, hand, opts)
			})
			t.Run(fmt.Sprintf("synth/%s/numeric=%v", measure, numeric), func(t *testing.T) {
				checkEmbeddingBitIdentity(t, append(synthCorpus(7)[:1500], hand...), opts)
			})
		}
	}
	t.Run("hand/weights+dims+iterations", func(t *testing.T) {
		checkEmbeddingBitIdentity(t, hand, Options{Seed: 42, Dims: 5, PivotIterations: 1,
			Weights: semdist.Weights{Alpha: 0.2, Beta: 0.5, Gamma: 0.3}})
	})
}

// TestSearchAllocs gates the allocation cost of the query path: the
// embedding itself allocates nothing, and a whole K=10 search on one
// partition stays within a dozen allocations (it was ~36 when every
// term distance built a cache key).
func TestSearchAllocs(t *testing.T) {
	ix, g := buildTestIndex(t, 5000, Options{Seed: 1})
	qs := g.Triples(64)
	dst := make([]float64, ix.Dims())
	i := 0
	if n := testing.AllocsPerRun(200, func() { ix.mapper.MapInto(dst, ix.metric.Resolve(qs[i%len(qs)])); i++ }); n != 0 {
		t.Errorf("MapInto: %v allocs per query, want 0", n)
	}
	s := ix.Searcher(WithK(10))
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := s.Search(ctx, qs[i%len(qs)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n > 12 {
		t.Errorf("Search(K=10): %v allocs per query, want at most 12", n)
	}
}

// TestNovelLiteralQueriesRetainNothing is the serving-path regression
// test for the literal cache: a client sending 50k never-seen subject
// and object literals must not grow the process. Embedding them
// allocates nothing and leaves nothing behind.
func TestNovelLiteralQueriesRetainNothing(t *testing.T) {
	ix, g := buildTestIndex(t, 2000, Options{Seed: 1})
	const novel = 50000
	base := g.RandomTriple()
	queries := make([]triple.Triple, novel)
	for i := range queries {
		queries[i] = triple.New(triple.NewString(fmt.Sprintf("CLIENT-%07d", i)), base.Predicate, triple.NewString(fmt.Sprintf("zone_%d", i)))
	}
	dst := make([]float64, ix.Dims())
	embed := func(q triple.Triple) { ix.mapper.MapInto(dst, ix.metric.Resolve(q)) }
	i := 0
	if n := testing.AllocsPerRun(1000, func() { embed(queries[i%novel]); i++ }); n != 0 {
		t.Errorf("embedding a novel literal: %v allocs, want 0", n)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for _, q := range queries {
		embed(q)
	}
	if after := heap(); after > before+256<<10 {
		t.Errorf("heap grew from %d to %d bytes over %d novel literal queries", before, after, novel)
	}
	runtime.KeepAlive(queries)
}
