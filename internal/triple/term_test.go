package triple

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewConceptDefaultsPrefix(t *testing.T) {
	c := NewConcept("", "start-up")
	if c.Prefix != StandardPrefix {
		t.Fatalf("prefix = %q, want %q", c.Prefix, StandardPrefix)
	}
	if !c.IsConcept() || c.IsLiteral() {
		t.Fatalf("kind predicates wrong for %v", c)
	}
}

func TestInferLiteralType(t *testing.T) {
	cases := []struct {
		in   string
		want LiteralType
	}{
		{"42", LitInt},
		{"-17", LitInt},
		{"3.14", LitFloat},
		{"-0.5", LitFloat},
		{"1e3", LitFloat},
		{"true", LitBool},
		{"false", LitBool},
		{"OBSW001", LitString},
		{"", LitString},
		{"12abc", LitString},
	}
	for _, c := range cases {
		if got := InferLiteralType(c.in); got != c.want {
			t.Errorf("InferLiteralType(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// strconvLiteralType is InferLiteralType as it was before its
// first-byte filter: strconv alone decides.
func strconvLiteralType(s string) LiteralType {
	if s == "true" || s == "false" {
		return LitBool
	}
	if _, err := strconv.ParseInt(s, 10, 64); err == nil {
		return LitInt
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return LitFloat
	}
	return LitString
}

// TestInferLiteralTypeMatchesStrconv: the first-byte filter changes no
// classification — checked on every string of up to two bytes and on
// the spellings strconv treats specially — and a token it filters out
// costs no allocation.
func TestInferLiteralTypeMatchesStrconv(t *testing.T) {
	check := func(s string) {
		if got, want := InferLiteralType(s), strconvLiteralType(s); got != want {
			t.Errorf("InferLiteralType(%q) = %v, strconv says %v", s, got, want)
		}
	}
	for _, s := range literalSeeds {
		check(s)
	}
	check("")
	for a := 0; a < 256; a++ {
		check(string([]byte{byte(a)}))
		for b := 0; b < 256; b++ {
			check(string([]byte{byte(a), byte(b)}))
		}
	}
	if n := testing.AllocsPerRun(100, func() { InferLiteralType("OBSW001") }); n != 0 {
		t.Errorf("InferLiteralType of a name allocates %.0f times", n)
	}
}

var literalSeeds = []string{
	"42", "-17", "+5", "3.14", ".5", "-.5e3", "1e3", "1E+3", "0x1p-2", "0X1P4", "0b101", "0o17", "1_000", "0x_1p0",
	"_1", "inf", "+Inf", "-INF", "infinity", "Infinity", "nan", "NaN", "+nan", "i", "n", "in", "na",
	"9223372036854775807", "9223372036854775808", "1e400", "true", "false", "True", "OBSW001", "12abc", " 1", "1 ",
}

func FuzzInferLiteralType(f *testing.F) {
	for _, s := range literalSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := InferLiteralType(s), strconvLiteralType(s); got != want {
			t.Fatalf("InferLiteralType(%q) = %v, strconv says %v", s, got, want)
		}
	})
}

// FuzzTermRoundTrip: any literal value reads back from its quoted form,
// alone, inside a triple, and through WriteAll and ReadAll when it
// holds no newline.
func FuzzTermRoundTrip(f *testing.F) {
	for _, s := range []string{"OBSW001", "a\\", "a\\'b", "o'brien", "C:\\temp", "'", "\\", "\\\\'", "a, b", "42", " x ", "(", ")."} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		lit := NewLiteral(v)
		back, err := ParseTerm(lit.String())
		if err != nil || back != lit {
			t.Fatalf("ParseTerm(%s) = %+v, %v; want %+v", lit, back, err, lit)
		}
		tr := New(lit, NewConcept("Fun", "f"), lit)
		if got, err := ParseTriple(tr.String()); err != nil || got != tr {
			t.Fatalf("ParseTriple(%s) = %+v, %v", tr, got, err)
		}
		if strings.Contains(v, "\n") {
			return
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, []Triple{tr}); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadAll(&buf); err != nil || len(got) != 1 || got[0] != tr {
			t.Fatalf("ReadAll(WriteAll(%s)) = %+v, %v", tr, got, err)
		}
	})
}

func TestTermEqual(t *testing.T) {
	a := NewConcept("Fun", "accept_cmd")
	b := NewConcept("Fun", "accept_cmd")
	if !a.Equal(b) {
		t.Errorf("identical concepts not equal")
	}
	if a.Equal(NewConcept("Cmd", "accept_cmd")) {
		t.Errorf("different prefixes compare equal")
	}
	if a.Equal(NewLiteral("accept_cmd")) {
		t.Errorf("concept equals literal")
	}
	l1, l2 := NewLiteral("42"), NewString("42")
	if l1.Equal(l2) {
		t.Errorf("int literal equals string literal of same lexical form")
	}
}

func TestTermStringNotation(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewConcept("Fun", "accept_cmd"), "Fun:accept_cmd"},
		{NewConcept("", "start-up"), "start-up"},
		{NewLiteral("OBSW001"), "'OBSW001'"},
		{NewLiteral("o'brien"), `'o\'brien'`},
		{NewLiteral(`a\`), `'a\\'`},
		{NewLiteral(`a\'b`), `'a\\\'b'`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTermKeyDistinguishesKinds(t *testing.T) {
	seen := map[string]Term{}
	terms := []Term{
		NewConcept("Fun", "x"),
		NewConcept("Cmd", "x"),
		NewConcept("", "x"),
		NewLiteral("x"),
		NewString("42"),
		NewLiteral("42"),
	}
	for _, tm := range terms {
		k := tm.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %v and %v: %q", prev, tm, k)
		}
		seen[k] = tm
	}
}

func TestTermEqualSymmetric(t *testing.T) {
	f := func(p1, v1, p2, v2 string, lit1, lit2 bool) bool {
		mk := func(p, v string, lit bool) Term {
			if lit {
				return NewLiteral(v)
			}
			return NewConcept(p, v)
		}
		a, b := mk(p1, v1, lit1), mk(p2, v2, lit2)
		return a.Equal(b) == b.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTermKeyEqualConsistency(t *testing.T) {
	// Equal terms must have equal keys and vice versa.
	f := func(p1, v1, p2, v2 string, lit1, lit2 bool) bool {
		mk := func(p, v string, lit bool) Term {
			if lit {
				return NewLiteral(v)
			}
			return NewConcept(p, v)
		}
		a, b := mk(p1, v1, lit1), mk(p2, v2, lit2)
		return a.Equal(b) == (a.Key() == b.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTripleProject(t *testing.T) {
	tr := New(NewLiteral("OBSW001"), NewConcept("Fun", "accept_cmd"), NewConcept("CmdType", "start-up"))
	if !tr.Project(0).Equal(tr.Subject) || !tr.Project(1).Equal(tr.Predicate) || !tr.Project(2).Equal(tr.Object) {
		t.Fatalf("Project disagrees with fields")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Project(3) did not panic")
		}
	}()
	tr.Project(3)
}

func TestTripleString(t *testing.T) {
	tr := New(NewLiteral("OBSW001"), NewConcept("Fun", "accept_cmd"), NewConcept("CmdType", "start-up"))
	want := "('OBSW001', Fun:accept_cmd, CmdType:start-up)"
	if got := tr.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestTripleKeyUnique(t *testing.T) {
	a := New(NewConcept("", "a"), NewConcept("", "b"), NewConcept("", "c"))
	b := New(NewConcept("", "a"), NewConcept("", "b"), NewConcept("", "d"))
	if a.Key() == b.Key() {
		t.Fatalf("distinct triples share a key")
	}
	if a.Key() != a.Key() {
		t.Fatalf("key not deterministic")
	}
}
