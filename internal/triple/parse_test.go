package triple

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseTermForms(t *testing.T) {
	cases := []struct {
		in   string
		want Term
	}{
		{"Fun:accept_cmd", NewConcept("Fun", "accept_cmd")},
		{"start-up", NewConcept("", "start-up")},
		{"'OBSW001'", NewLiteral("OBSW001")},
		{"  CmdType:start-up ", NewConcept("CmdType", "start-up")},
		{"42", Term{Kind: Literal, Value: "42", LitType: LitInt}},
		{"3.5", Term{Kind: Literal, Value: "3.5", LitType: LitFloat}},
		{"true", Term{Kind: Literal, Value: "true", LitType: LitBool}},
		{`'o\'brien'`, NewLiteral("o'brien")},
		{`'a\\'`, NewLiteral(`a\`)},
		{`'x\\\'y'`, NewLiteral(`x\'y`)},
		{`'C:\temp'`, NewLiteral(`C:\temp`)}, // any other escape stands as written
	}
	for _, c := range cases {
		got, err := ParseTerm(c.in)
		if err != nil {
			t.Errorf("ParseTerm(%q) error: %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("ParseTerm(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestParseTermErrors(t *testing.T) {
	for _, in := range []string{"", "  ", "'unterminated", ":name", "Prefix:"} {
		if _, err := ParseTerm(in); err == nil {
			t.Errorf("ParseTerm(%q): expected error", in)
		}
	}
}

func TestParseTriplePaperExample(t *testing.T) {
	in := "('OBSW001', Fun:accept_cmd, CmdType:start-up)"
	tr, err := ParseTriple(in)
	if err != nil {
		t.Fatalf("ParseTriple: %v", err)
	}
	want := New(NewLiteral("OBSW001"), NewConcept("Fun", "accept_cmd"), NewConcept("CmdType", "start-up"))
	if !tr.Equal(want) {
		t.Fatalf("got %v, want %v", tr, want)
	}
}

func TestParseTripleVariants(t *testing.T) {
	variants := []string{
		"('OBSW001', Fun:accept_cmd, CmdType:start-up)",
		"'OBSW001', Fun:accept_cmd, CmdType:start-up",
		"  ( 'OBSW001' ,Fun:accept_cmd,   CmdType:start-up )  ",
		"('OBSW001', Fun:accept_cmd, CmdType:start-up).",
	}
	want := New(NewLiteral("OBSW001"), NewConcept("Fun", "accept_cmd"), NewConcept("CmdType", "start-up"))
	for _, v := range variants {
		tr, err := ParseTriple(v)
		if err != nil {
			t.Errorf("ParseTriple(%q): %v", v, err)
			continue
		}
		if !tr.Equal(want) {
			t.Errorf("ParseTriple(%q) = %v, want %v", v, tr, want)
		}
	}
}

func TestParseTripleCommaInsideLiteral(t *testing.T) {
	tr, err := ParseTriple("('a, b', p, o)")
	if err != nil {
		t.Fatalf("ParseTriple: %v", err)
	}
	if tr.Subject.Value != "a, b" {
		t.Fatalf("subject = %q, want %q", tr.Subject.Value, "a, b")
	}
}

func TestParseTripleErrors(t *testing.T) {
	for _, in := range []string{"(a, b)", "(a, b, c, d)", "('x, y, z)", ""} {
		if _, err := ParseTriple(in); err == nil {
			t.Errorf("ParseTriple(%q): expected error", in)
		}
	}
}

func TestRoundTripString(t *testing.T) {
	// Parsing the rendered form of any triple built from simple tokens
	// must give back the same triple.
	f := func(sv, pv, ov uint8) bool {
		names := []string{"accept_cmd", "block_cmd", "send_msg", "start-up", "shutdown", "OBSW001"}
		tr := New(
			NewLiteral(names[int(sv)%len(names)]),
			NewConcept("Fun", names[int(pv)%len(names)]),
			NewConcept("CmdType", names[int(ov)%len(names)]),
		)
		back, err := ParseTriple(tr.String())
		return err == nil && back.Equal(tr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadAllWriteAllRoundTrip(t *testing.T) {
	ts := []Triple{
		New(NewLiteral("OBSW001"), NewConcept("Fun", "acquire_in"), NewConcept("InType", "pre-launch_phase")),
		New(NewLiteral("OBSW001"), NewConcept("Fun", "accept_cmd"), NewConcept("CmdType", "start-up")),
		New(NewLiteral("OBSW001"), NewConcept("Fun", "send_msg"), NewConcept("MsgType", "power_amplifier")),
	}
	// Literals holding a backslash, alone or before a quote.
	for _, v := range []string{`a\`, `a\'b`, `\\`, `C:\temp`, `'\`} {
		ts = append(ts, New(NewLiteral(v), NewConcept("Fun", "f"), NewConcept("", "o")))
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, ts); err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(back) != len(ts) {
		t.Fatalf("round trip length %d, want %d", len(back), len(ts))
	}
	for i := range ts {
		if !back[i].Equal(ts[i]) {
			t.Errorf("triple %d: got %v, want %v", i, back[i], ts[i])
		}
	}
}

func TestReadAllSkipsCommentsAndBlanks(t *testing.T) {
	in := `# requirements extract
('OBSW001', Fun:accept_cmd, CmdType:start-up)

# another comment
('OBSW002', Fun:send_msg, MsgType:telemetry)
`
	ts, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %d triples, want 2", len(ts))
	}
}

func TestReadAllReportsLineNumbers(t *testing.T) {
	in := "('a', p, o)\nbogus triple here\n"
	_, err := ReadAll(strings.NewReader(in))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Fatalf("error line = %d, want 2", pe.Line)
	}
}
