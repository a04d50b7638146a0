package triple_test

import (
	"bytes"
	"math"
	"testing"

	"semtree/internal/column"
	"semtree/internal/triple"
)

// TestStoreColumnsRoundTrip: a store read back from its columns holds
// the first n entries ==, keeps every pair of terms the dictionary
// keeps apart, and interns like the original.
func TestStoreColumnsRoundTrip(t *testing.T) {
	terms := modelTerms()
	s := triple.NewStore()
	seqs := []int{0, -1, math.MinInt64, math.MaxInt64, 1 << 40}
	for i := range 60 {
		tp := triple.New(terms[i%len(terms)], terms[(i*5+1)%len(terms)], terms[(i*7+2)%len(terms)])
		s.Add(tp, triple.Provenance{Doc: []string{"", "A", "std"}[i%3], Section: []string{"", "A "}[i%2], Seq: seqs[i%len(seqs)]})
	}
	const n = 50 // a prefix, as Save writes one
	var buf bytes.Buffer
	w := column.NewWriter(&buf)
	s.WriteColumns(w, n)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := triple.ReadStore(column.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != n {
		t.Fatalf("read %d triples, want %d", got.Len(), n)
	}
	for id := range triple.ID(n) {
		a, _ := got.Get(id)
		b, _ := s.Get(id)
		if a != b {
			t.Fatalf("entry %d = %+v, want %+v", id, a, b)
		}
	}
	gotTerms, _ := got.Encoded()
	wantTerms, _ := s.Encoded()
	for i := range wantTerms {
		if gotTerms[i] != wantTerms[i] {
			t.Fatalf("term %d = %+v, want %+v", i, gotTerms[i], wantTerms[i])
		}
	}
	for _, tm := range terms {
		got.Add(triple.New(tm, tm, tm), triple.Provenance{Doc: "A"})
	}
	if again, _ := got.Encoded(); len(again) != len(gotTerms) {
		t.Fatalf("re-adding stored terms grew the table %d -> %d", len(gotTerms), len(again))
	}
}

// TestStoreColumnsCutRun: a prefix that ends inside a run — a counting
// one, and one of Add repeated under one provenance — writes the rows
// and runs a store holding only those entries writes, and reads back
// ==; the copy, given the rest of the entries, writes the original's
// bytes: the cut run continues where it was cut.
func TestStoreColumnsCutRun(t *testing.T) {
	terms := modelTerms()
	s := triple.NewStore()
	var es []triple.Entry
	add := func(p triple.Provenance) {
		tp := triple.New(terms[len(es)%len(terms)], terms[(len(es)*5+1)%len(terms)], terms[(len(es)*7+2)%len(terms)])
		s.Add(tp, p)
		es = append(es, triple.Entry{Triple: tp, Prov: p})
	}
	for i := range 6 {
		add(triple.Provenance{Doc: "A", Section: "1", Seq: math.MaxInt - 2 + i}) // counts, and wraps
	}
	for range 5 {
		add(triple.Provenance{Doc: "A", Section: "2", Seq: 9}) // repeats
	}
	add(triple.Provenance{Doc: "B", Section: "2", Seq: 9})
	columns := func(s *triple.Store, n int) []byte {
		var buf bytes.Buffer
		w := column.NewWriter(&buf)
		s.WriteColumns(w, n)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// rowsAndRuns returns the payloads of the last two of b's four
	// columns; the tables before them hold the whole store's terms.
	rowsAndRuns := func(b []byte) []byte {
		r := column.NewReader(bytes.NewReader(b))
		var out []byte
		for i := range 4 {
			if err := r.Next(); err != nil {
				t.Fatal(err)
			}
			if i >= 2 {
				out = append(out, r.Rest()...)
			}
		}
		return out
	}
	whole := columns(s, len(es))
	for _, n := range []int{1, 2, 4, 7, 8, 10} {
		prefix := triple.NewStore()
		prefix.AddEntries(es[:n])
		if a, b := rowsAndRuns(columns(s, n)), rowsAndRuns(columns(prefix, n)); !bytes.Equal(a, b) {
			t.Fatalf("prefix %d writes rows and runs %x, a store of only those entries %x", n, a, b)
		}
		got, err := triple.ReadStore(column.NewReader(bytes.NewReader(columns(s, n))))
		if err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		for id := range triple.ID(n) {
			if e, _ := got.Get(id); e != es[id] {
				t.Fatalf("prefix %d: entry %d = %+v, want %+v", n, id, e, es[id])
			}
		}
		got.AddEntries(es[n:])
		if again := columns(got, len(es)); !bytes.Equal(again, whole) {
			t.Fatalf("prefix %d continued writes %x, the original %x", n, again, whole)
		}
	}
}

// writeStore writes the four store columns: the term and string
// tables, rows of three term ids, and runs of five values — length,
// doc, section, seq and step.
func writeStore(w *column.Writer, terms []triple.Term, strs []string, rows [][3]uint64, runs [][5]int64) {
	w.Uvarint(uint64(len(terms)))
	for _, t := range terms {
		triple.WriteTerm(w, t)
	}
	w.End()
	w.Uvarint(uint64(len(strs)))
	for _, s := range strs {
		w.Text(s)
	}
	w.End()
	w.Uvarint(uint64(len(rows)))
	for _, row := range rows {
		for _, id := range row {
			w.Uvarint(id)
		}
	}
	w.End()
	w.Uvarint(uint64(len(runs)))
	for _, r := range runs {
		w.Uvarint(uint64(r[0]))
		w.Uvarint(uint64(r[1]))
		w.Uvarint(uint64(r[2]))
		w.Varint(r[3])
		w.Byte(byte(r[4]))
	}
	w.End()
}

// TestReadStoreRejects: tables with a repeated entry, rows or runs
// naming an entry past a table's end, an empty run, a step other than 0
// and 1, and runs that do not cover the rows exactly are errors, even
// with every checksum intact. Each case breaks one rule only, and the
// columns after the cases, which break none, read back.
func TestReadStoreRejects(t *testing.T) {
	concept := triple.NewConcept("Fun", "send_msg")
	one := []triple.Term{concept}
	strs := []string{"A", "B"}
	rows := [][3]uint64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	cases := []struct {
		name  string
		terms []triple.Term
		strs  []string
		rows  [][3]uint64
		runs  [][5]int64
	}{
		{"repeated term", []triple.Term{concept, concept}, nil, nil, nil},
		{"repeated string", nil, []string{"A", "A"}, nil, nil},
		{"term out of range", one, strs, [][3]uint64{{0, 1, 0}}, [][5]int64{{1, 0, 0, 0, 0}}},
		{"doc out of range", one, strs, rows, [][5]int64{{3, 2, 0, 0, 1}}},
		{"section out of range", one, strs, rows, [][5]int64{{1, 0, 1, 0, 0}, {2, 1, 2, 0, 1}}},
		{"zero-length run", one, strs, rows, [][5]int64{{1, 0, 0, 0, 0}, {0, 1, 1, 0, 0}, {2, 1, 1, 0, 1}}},
		{"runs short of the rows", one, strs, rows, [][5]int64{{1, 0, 0, 0, 0}, {1, 1, 1, 0, 0}}},
		{"runs past the rows", one, strs, rows, [][5]int64{{2, 0, 0, 0, 0}, {2, 1, 1, 0, 0}}},
		{"no run over rows", one, strs, rows, nil},
		{"step 2", one, strs, rows, [][5]int64{{3, 0, 1, -4, 2}}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		w := column.NewWriter(&buf)
		writeStore(w, c.terms, c.strs, c.rows, c.runs)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := triple.ReadStore(column.NewReader(&buf)); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}

	var buf bytes.Buffer
	w := column.NewWriter(&buf)
	writeStore(w, one, strs, rows, [][5]int64{{1, 0, 0, math.MaxInt64, 1}, {2, 1, 0, -1, 1}})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := triple.ReadStore(column.NewReader(&buf))
	if err != nil {
		t.Fatalf("the valid columns: %v", err)
	}
	for id, want := range []triple.Provenance{{Doc: "A", Section: "A", Seq: math.MaxInt64}, {Doc: "B", Section: "A", Seq: -1}, {Doc: "B", Section: "A", Seq: 0}} {
		if e, _ := s.Get(triple.ID(id)); e.Prov != want {
			t.Fatalf("entry %d has provenance %+v, want %+v", id, e.Prov, want)
		}
	}
}
