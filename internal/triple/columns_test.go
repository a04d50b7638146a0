package triple_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strconv"
	"testing"

	"semtree/internal/column"
	"semtree/internal/synth"
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
// one, and one of Add repeated under one provenance — writes the run
// column a store holding only those entries writes, and reads back ==;
// the copy, given the rest of the entries, writes the original's bytes:
// the cut run continues where it was cut. Only the run column is
// compared with the smaller store's: a position coded by TermID takes
// codes as wide as the whole term table, which the prefix shares.
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
	// runs returns the payload of the last of b's four columns. The
	// rows are not compared: a prefix codes them against the whole
	// store's term table, whose size sets the width of a TermID code.
	runs := func(b []byte) []byte {
		cols := payloads(t, b)
		if len(cols) != 4 {
			t.Fatalf("%d columns, want 4", len(cols))
		}
		return cols[3]
	}
	whole := columns(s, len(es))
	for _, n := range []int{1, 2, 4, 7, 8, 10} {
		prefix := triple.NewStore()
		prefix.AddEntries(es[:n])
		if a, b := runs(columns(s, n)), runs(columns(prefix, n)); !bytes.Equal(a, b) {
			t.Fatalf("prefix %d writes runs %x, a store of only those entries %x", n, a, b)
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

// rowColumn is the body of a row column: n, each position's coding —
// its dictionary, or for a nil one codes by TermID — and the packed
// codes, as given.
func rowColumn(n uint64, dicts [3][]uint64, packed ...byte) []byte {
	c := binary.AppendUvarint(nil, n)
	for _, d := range dicts {
		if d == nil {
			c = append(c, 1)
			continue
		}
		c = binary.AppendUvarint(append(c, 0), uint64(len(d)))
		for _, id := range d {
			c = binary.AppendUvarint(c, id)
		}
	}
	return append(c, packed...)
}

// packRows packs rows of three codes, position j's widths[j] bits wide.
func packRows(widths [3]int, rows ...[3]uint64) []byte {
	var packed column.Appender
	w := column.BitWriter{A: &packed}
	for _, r := range rows {
		for j, c := range r {
			w.Bits(c, widths[j])
		}
	}
	w.Flush()
	return packed
}

// numbers returns n distinct literal terms, "0" to n-1: a table wide
// enough that TermID codes of a few repeated terms cost more than a
// dictionary.
func numbers(n int) []triple.Term {
	ts := make([]triple.Term, n)
	for i := range ts {
		ts[i] = triple.NewLiteral(strconv.Itoa(i))
	}
	return ts
}

// TestReadStoreRejects: tables with a repeated entry; a position coded
// other than by dictionary or TermID, or coded the way that takes more
// bits; a dictionary naming a term past the table, naming one twice,
// out of first-seen order, holding an entry no row uses, or claiming
// 2^32 entries, whose codes would take 33 bits; a code past its
// dictionary or a TermID code past the table; packed codes of the
// wrong length; a set pad bit; runs naming a string past the table; an
// empty run; a step other than 0 and 1; a one-triple run that steps;
// and runs that do not cover the rows exactly are errors, even with
// every checksum intact. Each case breaks one rule only, and the
// columns after the cases, which break none, read back.
func TestReadStoreRejects(t *testing.T) {
	concept := triple.NewConcept("Fun", "send_msg")
	one := []triple.Term{concept}
	many := numbers(256) // TermID codes of 9 bits
	strs := []string{"A", "B"}
	byTerm := [3][]uint64{}
	rows := rowColumn(3, byTerm, 0, 0) // three rows over one term: three 1-bit TermID codes each
	run := [][5]int64{{3, 0, 0, 0, 0}}
	// Three rows over dictionaries of one term each: 3 bits a row, where
	// TermIDs take 27.
	ones := [3][]uint64{{0}, {0}, {0}}
	// Four rows over dictionaries {0, 1}, {0} and {0}: 4 bits a row.
	twoDicts := [3][]uint64{{0, 1}, {0}, {0}}
	fourRuns := [][5]int64{{4, 0, 0, 0, 0}}
	wide := binary.AppendUvarint(append(binary.AppendUvarint(nil, 3), 0), 1<<32) // a dictionary of 2^32 terms
	cases := []struct {
		name  string
		terms []triple.Term
		strs  []string
		rows  []byte
		runs  [][5]int64
	}{
		{"repeated term", []triple.Term{concept, concept}, nil, rowColumn(0, byTerm), nil},
		{"repeated string", nil, []string{"A", "A"}, rowColumn(0, byTerm), nil},
		{"position coded as 2", one, strs, append(binary.AppendUvarint(nil, 3), 2, 1, 1, 0, 0), run},
		{"dictionary where TermIDs take fewer bits", one, strs, rowColumn(3, ones, 0, 0), run},
		{"TermIDs where a dictionary takes fewer bits", many, strs, rowColumn(3, byTerm, make([]byte, 11)...), run},
		{"dictionary entry out of range", many, strs, rowColumn(3, [3][]uint64{{0}, {256}, {0}}, 0, 0), run},
		{"repeated dictionary entry", many, strs, rowColumn(4, [3][]uint64{{0, 0}, {0}, {0}}, 0x10, 0x10), fourRuns},
		{"dictionary of 33-bit codes", one, strs, wide, run},
		{"code past its dictionary", many, strs, rowColumn(3, ones, 0b1000, 0), run},
		{"TermID past the table", one, strs, rowColumn(3, byTerm, 0b1000, 0), run},
		// Subjects 1, 0, 1, 0 over a dictionary {0, 1}: every entry
		// used, the second first.
		{"dictionary out of first-seen order", many, strs, rowColumn(4, twoDicts, 0x01, 0x01), fourRuns},
		{"unused dictionary entry", many, strs, rowColumn(4, twoDicts, 0, 0), fourRuns},
		{"packed codes too long", many, strs, rowColumn(3, ones, 0, 0, 0), run},
		{"packed codes too short", many, strs, rowColumn(3, ones, 0), run},
		{"rows the bytes do not back", one, strs, rowColumn(1000, byTerm, 0, 0), [][5]int64{{1000, 0, 0, 0, 0}}},
		{"pad bit set", many, strs, rowColumn(3, ones, 0, 0b10), run},
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
	// Subjects 5, 7, 5, 7 through a dictionary, predicate 0 through
	// one, and four distinct objects by TermID: each the cheaper coding.
	mixed := [][3]uint64{{0, 0, 10}, {1, 0, 11}, {0, 0, 12}, {1, 0, 13}}
	buf.Reset()
	w = column.NewWriter(&buf)
	writeStore(w, many, strs, rowColumn(4, [3][]uint64{{5, 7}, {0}, nil}, packRows([3]int{2, 1, 9}, mixed...)...), fourRuns)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if s, err = triple.ReadStore(column.NewReader(&buf)); err != nil {
		t.Fatalf("the valid mixed columns: %v", err)
	}
	for id, r := range mixed {
		want := triple.New(many[[]int{5, 7}[r[0]]], many[0], many[r[2]])
		if e, _ := s.Get(triple.ID(id)); e.Triple != want {
			t.Fatalf("entry %d is %v, want %v", id, e.Triple, want)
		}
	}
}

// TestRowColumnWorstCase: a position whose terms rarely repeat is coded
// by TermID, so a store of 100 000 triples with a distinct subject and
// object each (40 predicates) writes a row column of at most 6.84 bytes
// a triple — what it took when every row was three uvarint TermIDs; it
// took 10.84 when every position had a dictionary — while the
// benchmark's synth corpus keeps a dictionary at every position.
func TestRowColumnWorstCase(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-triple stores")
	}
	const n = 100000
	rowBytes := func(s *triple.Store) []byte {
		var buf bytes.Buffer
		w := column.NewWriter(&buf)
		s.WriteColumns(w, s.Len())
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return payloads(t, buf.Bytes())[2]
	}
	distinct := triple.NewStore()
	for i := range n {
		distinct.Add(triple.New(triple.NewConcept("S", strconv.Itoa(i)), triple.NewConcept("P", strconv.Itoa(i%40)),
			triple.NewLiteral(strconv.Itoa(i))), triple.Provenance{Doc: "d"})
	}
	rows := rowBytes(distinct)
	t.Logf("distinct subjects and objects: rows %.3f B/triple", float64(len(rows))/n)
	if got := float64(len(rows)) / n; got > 6.84 {
		t.Errorf("rows of distinct subjects and objects take %.3f B/triple, want <= 6.84", got)
	}
	if c := codings(t, rows); !bytes.Equal(c, []byte{1, 0, 1}) {
		t.Errorf("distinct subjects and objects over 40 predicates coded %v, want {1, 0, 1}: TermIDs, a dictionary, TermIDs", c)
	}

	synthetic := triple.NewStore()
	synthetic.AddAll(synth.New(synth.Config{Seed: 1, Actors: 200}, nil).Triples(n), triple.Provenance{Doc: "synth"})
	rows = rowBytes(synthetic)
	t.Logf("synth corpus: rows %.3f B/triple", float64(len(rows))/n)
	if c := codings(t, rows); !bytes.Equal(c, []byte{0, 0, 0}) {
		t.Errorf("synth corpus positions coded %v, want a dictionary each", c)
	}
}

// codings returns the coding byte of each position of a row column.
func codings(t *testing.T, rows []byte) []byte {
	t.Helper()
	var d column.Decoder
	d.Reset(rows)
	d.Uvarint()
	var out []byte
	for range 3 {
		c := d.Byte()
		out = append(out, c)
		if c == 0 {
			for range d.Uvarint() {
				d.Uvarint()
			}
		}
	}
	if d.Err() != nil {
		t.Fatalf("row column: %v", d.Err())
	}
	return out
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
	for _, rows := range [][]byte{
		rowColumn(3, [3][]uint64{}, 0b1000, 0),                               // a TermID past the table
		rowColumn(3, [3][]uint64{}, 0, 0b10),                                 // a set pad bit
		rowColumn(3, [3][]uint64{{0}, {0}, {0}}, 0, 0),                       // dictionaries where TermIDs take fewer bits
		binary.AppendUvarint(append(binary.AppendUvarint(nil, 3), 0), 1<<32), // a dictionary of 33-bit codes
	} {
		f.Add(oneCols[0], oneCols[1], rows, oneCols[3])
	}
	// 200 rows over 100 subjects, 4 predicates and 100 objects: the
	// predicates through a dictionary, the rest by TermID.
	mixed := triple.NewStore()
	for i := range 200 {
		mixed.Add(triple.New(triple.NewLiteral(strconv.Itoa(i%100)), triple.NewConcept("P", strconv.Itoa(i%4)),
			triple.NewConcept("O", strconv.Itoa(i/2))), triple.Provenance{Doc: "A"})
	}
	var mixedBuf bytes.Buffer
	w = column.NewWriter(&mixedBuf)
	mixed.WriteColumns(w, mixed.Len())
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	mixedCols := payloads(f, mixedBuf.Bytes())
	f.Add(mixedCols[0], mixedCols[1], mixedCols[2], mixedCols[3])

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
