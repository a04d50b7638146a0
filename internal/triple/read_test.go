package triple_test

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"semtree/internal/synth"
	"semtree/internal/triple"
)

// handWritten holds every form the notation allows on a line: comments,
// blank lines, optional parentheses, a trailing period, numeric and
// bool literals, escaped quotes and backslashes, a comma inside a
// literal, CRLF endings, and two spellings of one term (start-up and
// std:start-up, 42 and '42').
const handWritten = `# requirements extract
('OBSW001', Fun:accept_cmd, CmdType:start-up)

'OBSW001', Fun:send_msg, MsgType:telemetry
  ( 'OBSW002' ,Fun:accept_cmd,   CmdType:start-up )
('OBSW001', Fun:accept_cmd, CmdType:shutdown).
	# an indented comment
('PDU9', Fun:set_level, 42)
('PDU9', Fun:set_level, '42')
('PDU9', Fun:set_gain, -3.5e2)
('PDU9', Fun:enabled, true)
('o\'brien', Fun:said, 'a, b')
(start-up, std:start-up, 'C:\temp')
('a\\', Fun:f, 'x\\\'y')` + "\r\n('OBSW001', Fun:accept_cmd, CmdType:start-up)\r\n"

func synthFile(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := triple.WriteAll(&buf, synth.New(synth.Config{Seed: 1, Actors: 200}, nil).Triples(n)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// prefilled returns a store already holding triples under another
// provenance, some of whose terms the files below reuse.
func prefilled() *triple.Store {
	s := triple.NewStore()
	s.AddAll(synth.New(synth.Config{Seed: 9, Actors: 20}, nil).Triples(50), triple.Provenance{Doc: "before", Section: "s"})
	s.Add(triple.New(triple.NewLiteral("OBSW001"), triple.NewConcept("Fun", "accept_cmd"), triple.NewLiteral("7")), triple.Provenance{Doc: "f.txt"})
	return s
}

// sameStore fails unless a and b hold the same dictionary, the same
// rows and the same entries.
func sameStore(t *testing.T, a, b *triple.Store) {
	t.Helper()
	at, ar := a.Encoded()
	bt, br := b.Encoded()
	if !slices.Equal(at, bt) {
		t.Fatalf("term tables differ:\n%v\n%v", at, bt)
	}
	if !slices.Equal(ar, br) {
		t.Fatalf("rows differ:\n%v\n%v", ar, br)
	}
	var ae []triple.Entry
	a.Each(func(_ triple.ID, e triple.Entry) bool { ae = append(ae, e); return true })
	i := 0
	b.Each(func(id triple.ID, e triple.Entry) bool {
		if i >= len(ae) || e != ae[i] {
			t.Fatalf("entry %d differs", id)
		}
		i++
		return true
	})
	if i != len(ae) {
		t.Fatalf("Each visited %d and %d entries", len(ae), i)
	}
}

// TestAddFromMatchesReadAll: a store filled by AddFrom is the store
// ReadAll + AddAll fill, term ids, rows and entries, whether it starts
// empty or not.
func TestAddFromMatchesReadAll(t *testing.T) {
	files := map[string][]byte{"synth": synthFile(t, 5000), "hand-written": []byte(handWritten)}
	for name, data := range files {
		for _, start := range []struct {
			name string
			new  func() *triple.Store
		}{{"empty", triple.NewStore}, {"non-empty", prefilled}} {
			t.Run(name+"/"+start.name, func(t *testing.T) {
				p := triple.Provenance{Doc: "f.txt", Section: "s", Seq: 3}
				ts, err := triple.ReadAll(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				want := start.new()
				wantFirst := want.AddAll(ts, p)
				got := start.new()
				first, n, err := got.AddFrom(bytes.NewReader(data), p)
				if err != nil {
					t.Fatal(err)
				}
				if first != wantFirst || n != len(ts) {
					t.Fatalf("AddFrom = (%d, %d), AddAll first %d of %d", first, n, wantFirst, len(ts))
				}
				sameStore(t, got, want)
			})
		}
	}
	// The hand-written file's two spellings of one term share an id.
	s := triple.NewStore()
	if _, _, err := s.AddFrom(strings.NewReader(handWritten), triple.Provenance{}); err != nil {
		t.Fatal(err)
	}
	terms, _ := s.Encoded()
	for _, dup := range []triple.Term{triple.NewConcept("", "start-up"), triple.NewLiteral("42")} {
		count := 0
		for _, u := range terms {
			if u == dup {
				count++
			}
		}
		if count != 1 {
			t.Errorf("%v is in the term table %d times", dup, count)
		}
	}
}

// TestAddFromParseErrorLeavesStoreUnchanged: a bad line n fails the
// whole stream with a *ParseError at line n, and nothing is stored.
func TestAddFromParseErrorLeavesStoreUnchanged(t *testing.T) {
	good := "('a', Fun:f, o)\n# comment\n\n('b', Fun:f, fresh_term)\n"
	for _, tc := range []struct {
		bad  string
		line int
	}{
		{"('a', b)", 5},
		{"('unterminated, b, c)", 5},
		{"(:x, b, c)", 5},
		{"(a, b, Fun:)", 5},
		{"(a, b, c, d)", 5},
	} {
		s := prefilled()
		before := s.Len()
		terms, _ := s.Encoded()
		first, n, err := s.AddFrom(strings.NewReader(good+tc.bad+"\n('c', Fun:f, o)\n"), triple.Provenance{Doc: "f.txt"})
		var pe *triple.ParseError
		if !errors.As(err, &pe) || pe.Line != tc.line {
			t.Errorf("%q: err = %v, want a *ParseError at line %d", tc.bad, err, tc.line)
		}
		if first != 0 || n != 0 {
			t.Errorf("%q: AddFrom = (%d, %d) on error", tc.bad, first, n)
		}
		after, _ := s.Encoded()
		if s.Len() != before || len(after) != len(terms) {
			t.Errorf("%q: store grew from %d triples, %d terms to %d, %d", tc.bad, before, len(terms), s.Len(), len(after))
		}
	}
}

// TestAddFromAllocs gates the reader: 100k lines cost allocations per
// block read and per distinct term, not per line (ReadAll + AddAll made
// about 25 per line before the per-stream term table).
func TestAddFromAllocs(t *testing.T) {
	data := synthFile(t, 100000)
	allocs := testing.AllocsPerRun(2, func() {
		if _, n, err := triple.NewStore().AddFrom(bytes.NewReader(data), triple.Provenance{Doc: "synth"}); err != nil || n != 100000 {
			t.Fatalf("AddFrom = %d, %v", n, err)
		}
	})
	t.Logf("AddFrom, 100k lines (%d bytes): %.0f allocations", len(data), allocs)
	if allocs >= 1000 {
		t.Errorf("AddFrom made %.0f allocations for 100k lines, want < 1000", allocs)
	}
}

// referenceRead parses s line by line with ParseTriple, the way the
// stream readers are specified to: lines split at '\n', trimmed, blank
// and '#' lines skipped, the first bad line's error carrying its number.
func referenceRead(s string) ([]triple.Triple, error) {
	var out []triple.Triple
	for i, text := range strings.Split(s, "\n") {
		text = strings.TrimSpace(text)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		tr, err := triple.ParseTriple(text)
		if err != nil {
			var pe *triple.ParseError
			if errors.As(err, &pe) {
				pe.Line = i + 1
			}
			return out, err
		}
		out = append(out, tr)
	}
	return out, nil
}

// sameParseError reports whether err and want are both nil, or both a
// *ParseError with equal line, position and message.
func sameParseError(err, want error) bool {
	if err == nil || want == nil {
		return err == want
	}
	var a, b *triple.ParseError
	return errors.As(err, &a) && errors.As(want, &b) && *a == *b
}

// FuzzReadTriples: ReadAll and AddFrom agree with line-by-line
// ParseTriple on acceptance, on the error (its line included) and on
// every triple read.
func FuzzReadTriples(f *testing.F) {
	for _, seed := range []string{
		handWritten,
		"",
		"\n\n",
		"('a', b, c)\nbogus triple here\n",
		"('a\\', b, c)",
		"(a, 'b, c)\n",
		"(a, b, c).\r\n# x\r\n(d, e, 3.)",
		"(:x, b, c)",
		"a, b, 'c\\\\'\n'x', y, z",
		"(\u00a0a\u00a0, b ,c\u2003)\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := referenceRead(s)
		got, err := triple.ReadAll(strings.NewReader(s))
		if !sameParseError(err, wantErr) {
			t.Fatalf("ReadAll error %v, line by line %v", err, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("ReadAll read %v, line by line %v", got, want)
		}

		st := prefilled()
		before := st.Triples()
		first, n, err := st.AddFrom(strings.NewReader(s), triple.Provenance{Doc: "f.txt"})
		if !sameParseError(err, wantErr) {
			t.Fatalf("AddFrom error %v, line by line %v", err, wantErr)
		}
		after := st.Triples()
		wantFirst := triple.ID(len(before))
		if err != nil {
			want, wantFirst = nil, 0
		}
		if first != wantFirst || n != len(want) || !slices.Equal(after, slices.Concat(before, want)) {
			t.Fatalf("AddFrom = (%d, %d): store %v, want %v then %v", first, n, after, before, want)
		}
	})
}

// BenchmarkAddFrom reads the benchmark's 100k-triple corpus, as the
// serve workload writes it, into an empty store: what semtree-serve
// does with -triples before it builds.
func BenchmarkAddFrom(b *testing.B) {
	data := synthFile(b, 100000)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := triple.NewStore().AddFrom(bytes.NewReader(data), triple.Provenance{Doc: "synth"}); err != nil {
			b.Fatal(err)
		}
	}
}
