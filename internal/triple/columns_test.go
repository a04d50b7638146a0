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

// TestReadStoreRejects: tables with a repeated entry and rows naming an
// entry past a table's end are errors, even with every checksum intact.
func TestReadStoreRejects(t *testing.T) {
	concept := triple.NewConcept("Fun", "send_msg")
	cases := map[string]func(w *column.Writer){
		"repeated term": func(w *column.Writer) {
			w.Uvarint(2)
			triple.WriteTerm(w, concept)
			triple.WriteTerm(w, concept)
			w.End()
			w.Uvarint(0)
			w.End()
			w.Uvarint(0)
			w.End()
		},
		"repeated string": func(w *column.Writer) {
			w.Uvarint(0)
			w.End()
			w.Uvarint(2)
			w.Text("A")
			w.Text("A")
			w.End()
			w.Uvarint(0)
			w.End()
		},
		"term out of range": func(w *column.Writer) {
			w.Uvarint(1)
			triple.WriteTerm(w, concept)
			w.End()
			w.Uvarint(1)
			w.Text("A")
			w.End()
			w.Uvarint(1)
			for _, v := range []uint64{0, 1, 0, 0, 0} {
				w.Uvarint(v)
			}
			w.Varint(0)
			w.End()
		},
		"string out of range": func(w *column.Writer) {
			w.Uvarint(1)
			triple.WriteTerm(w, concept)
			w.End()
			w.Uvarint(1)
			w.Text("A")
			w.End()
			w.Uvarint(1)
			for _, v := range []uint64{0, 0, 0, 0, 1} {
				w.Uvarint(v)
			}
			w.Varint(0)
			w.End()
		},
	}
	for name, write := range cases {
		var buf bytes.Buffer
		w := column.NewWriter(&buf)
		write(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := triple.ReadStore(column.NewReader(&buf)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}
