package triple_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
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
		cols := payloads(t, b)
		if len(cols) != 4 {
			t.Fatalf("%d columns, want 4", len(cols))
		}
		return append(cols[2], cols[3]...)
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
// tables, the row column's body as given (rowColumn), and runs of five
// values — length, doc, section, seq and step.
func writeStore(w *column.Writer, terms []triple.Term, strs []string, rows []byte, runs [][5]int64) {
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
	w.Appender = append(w.Appender, rows...)
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

// rowColumn is the body of a row column: n, the three dictionaries and
// the packed codes, as given.
func rowColumn(n uint64, dicts [3][]uint64, packed ...byte) []byte {
	c := binary.AppendUvarint(nil, n)
	for _, d := range dicts {
		c = binary.AppendUvarint(c, uint64(len(d)))
		for _, id := range d {
			c = binary.AppendUvarint(c, id)
		}
	}
	return append(c, packed...)
}

// TestReadStoreRejects: tables with a repeated entry; a dictionary
// naming a term past the table, naming one twice, out of first-seen
// order, holding an entry no row uses, or claiming 2^32 entries, whose
// codes would take 33 bits; a
// code past its dictionary; packed codes of the wrong length; a set pad
// bit; runs naming a string past the table; an empty run; a step other
// than 0 and 1; a one-triple run that steps; and runs that do not cover
// the rows exactly are errors, even with every checksum intact. Each
// case breaks one rule only, and the columns after the cases, which
// break none, read back.
func TestReadStoreRejects(t *testing.T) {
	concept := triple.NewConcept("Fun", "send_msg")
	one := []triple.Term{concept}
	two := []triple.Term{concept, triple.NewLiteral("42")}
	strs := []string{"A", "B"}
	ones := [3][]uint64{{0}, {0}, {0}}
	rows := rowColumn(3, ones, 0, 0) // three rows of three 1-bit codes
	run := [][5]int64{{3, 0, 0, 0, 0}}
	// Two rows over two terms: each position's dictionary {0, 1}, codes
	// of two bits, the second row's three 1s at bits 6, 8 and 10.
	twoDicts := [3][]uint64{{0, 1}, {0, 1}, {0, 1}}
	twoRuns := [][5]int64{{2, 0, 0, 0, 0}}
	wide := binary.AppendUvarint(binary.AppendUvarint(nil, 3), 1<<32) // a dictionary of 2^32 terms
	cases := []struct {
		name  string
		terms []triple.Term
		strs  []string
		rows  []byte
		runs  [][5]int64
	}{
		{"repeated term", []triple.Term{concept, concept}, nil, rowColumn(0, [3][]uint64{}), nil},
		{"repeated string", nil, []string{"A", "A"}, rowColumn(0, [3][]uint64{}), nil},
		{"dictionary entry out of range", one, strs, rowColumn(3, [3][]uint64{{0}, {1}, {0}}, 0, 0), run},
		{"repeated dictionary entry", two, strs, rowColumn(2, [3][]uint64{{0, 0}, {0, 1}, {0, 1}}, 0x40, 0x05), twoRuns},
		{"dictionary of 33-bit codes", one, strs, wide, run},
		{"code past its dictionary", one, strs, rowColumn(3, ones, 0b1000, 0), run},
		// Subjects 1, 0, 1 over a dictionary {0, 1}: every entry used,
		// the second first.
		{"dictionary out of first-seen order", two, strs, rowColumn(3, [3][]uint64{{0, 1}, {0}, {0}}, 0x01, 0x01), run},
		{"unused dictionary entry", two, strs, rowColumn(2, [3][]uint64{{0, 1}, {0}, {0}}, 0), twoRuns},
		{"packed codes too long", one, strs, rowColumn(3, ones, 0, 0, 0), run},
		{"packed codes too short", one, strs, rowColumn(3, ones, 0), run},
		{"rows the bytes do not back", one, strs, rowColumn(1000, ones, 0, 0), [][5]int64{{1000, 0, 0, 0, 0}}},
		{"pad bit set", one, strs, rowColumn(3, ones, 0, 0b10), run},
		{"doc out of range", one, strs, rows, [][5]int64{{3, 2, 0, 0, 1}}},
		{"section out of range", one, strs, rows, [][5]int64{{1, 0, 1, 0, 0}, {2, 1, 2, 0, 1}}},
		{"zero-length run", one, strs, rows, [][5]int64{{1, 0, 0, 0, 0}, {0, 1, 1, 0, 0}, {2, 1, 1, 0, 1}}},
		{"runs short of the rows", one, strs, rows, [][5]int64{{1, 0, 0, 0, 0}, {1, 1, 1, 0, 0}}},
		{"runs past the rows", one, strs, rows, [][5]int64{{2, 0, 0, 0, 0}, {2, 1, 1, 0, 0}}},
		{"no run over rows", one, strs, rows, nil},
		{"step 2", one, strs, rows, [][5]int64{{3, 0, 1, -4, 2}}},
		{"one-triple run that steps", one, strs, rows, [][5]int64{{1, 0, 0, 0, 1}, {2, 1, 0, 0, 1}}},
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
	writeStore(w, one, strs, rows, [][5]int64{{1, 0, 0, math.MaxInt64, 0}, {2, 1, 0, -1, 1}})
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
	buf.Reset()
	w = column.NewWriter(&buf)
	writeStore(w, two, strs, rowColumn(2, twoDicts, 0x40, 0x05), twoRuns)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if s, err = triple.ReadStore(column.NewReader(&buf)); err != nil {
		t.Fatalf("the valid two-term columns: %v", err)
	}
	for id, want := range []triple.Term{concept, two[1]} {
		if e, _ := s.Get(triple.ID(id)); e.Triple != triple.New(want, want, want) {
			t.Fatalf("entry %d is %v, want (%v, %v, %v)", id, e.Triple, want, want, want)
		}
	}
}

// payloads returns the payloads of the columns a stream holds.
func payloads(t testing.TB, b []byte) [][]byte {
	t.Helper()
	r := column.NewReader(bytes.NewReader(b))
	var out [][]byte
	for r.Next() == nil {
		out = append(out, bytes.Clone(r.Rest()))
	}
	return out
}

// FuzzReadStore: ReadStore on arbitrary column payloads, framed with
// their checksums, never panics; it allocates in proportion to its
// input, the sizes it allocates by backed by the bytes (Count, and the
// packed codes' length for the rows); and whatever it accepts,
// WriteColumns writes back byte for byte — a store has one encoding.
func FuzzReadStore(f *testing.F) {
	s := triple.NewStore()
	terms := modelTerms()
	for i := range 30 {
		tp := triple.New(terms[i%7], terms[(i*5+1)%len(terms)], terms[(i*3)%4])
		s.Add(tp, triple.Provenance{Doc: []string{"A", "B", "B"}[i/10], Section: "1", Seq: i % 10})
	}
	var valid bytes.Buffer
	w := column.NewWriter(&valid)
	s.WriteColumns(w, s.Len())
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	cols := payloads(f, valid.Bytes())
	if len(cols) != 4 {
		f.Fatalf("%d columns, want 4", len(cols))
	}
	f.Add(cols[0], cols[1], cols[2], cols[3]) // three runs
	var one bytes.Buffer
	w = column.NewWriter(&one)
	writeStore(w, []triple.Term{triple.NewConcept("Fun", "send_msg")}, []string{"A"}, nil, [][5]int64{{3, 0, 0, 0, 0}})
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	oneCols := payloads(f, one.Bytes())
	ones := [3][]uint64{{0}, {0}, {0}}
	for _, rows := range [][]byte{
		rowColumn(3, ones, 0b1000, 0),                             // a code past its dictionary
		rowColumn(3, ones, 0, 0b10),                               // a set pad bit
		binary.AppendUvarint(binary.AppendUvarint(nil, 3), 1<<32), // a dictionary of 33-bit codes
	} {
		f.Add(oneCols[0], oneCols[1], rows, oneCols[3])
	}

	f.Fuzz(func(t *testing.T, terms, strs, rows, runs []byte) {
		var in bytes.Buffer
		w := column.NewWriter(&in)
		for _, c := range [][]byte{terms, strs, rows, runs} {
			w.Appender = append(w.Appender, c...)
			w.End()
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := triple.ReadStore(column.NewReader(bytes.NewReader(in.Bytes())))
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*in.Len()); got > limit {
			t.Fatalf("reading %d bytes allocated %d, over %d", in.Len(), got, limit)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		w = column.NewWriter(&out)
		s.WriteColumns(w, s.Len())
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in.Bytes()) {
			t.Fatalf("accepted columns\n%x\nwrite back as\n%x", in.Bytes(), out.Bytes())
		}
	})
}
