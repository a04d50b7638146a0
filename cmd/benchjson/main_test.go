package main

import (
	"math"
	"strings"
	"testing"
)

const sampleCSV = `dims,rr parts/q,placed parts/q,rr msgs/q,placed msgs/q
2,3.48,3.50,3.48,3.30
4,4.33,4.05,4.33,4.05
8,4.65,4.30,4.65,4.30
16,4.90,4.80,4.90,4.80
`

func mustCSV(t *testing.T, s string) *figureCSV {
	t.Helper()
	f, err := parseFigureCSV(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseFigureCSV(t *testing.T) {
	f := mustCSV(t, sampleCSV)
	if f.xLabel != "dims" || len(f.names) != 4 || len(f.xs) != 4 {
		t.Fatalf("parsed %q / %v / %v", f.xLabel, f.names, f.xs)
	}
	if f.xs[2] != 8 || f.rows[2][1] != "4.30" {
		t.Fatalf("row 2 = x %g cells %v", f.xs[2], f.rows[2])
	}
	if _, err := parseFigureCSV(strings.NewReader("dims,a\n8,1,2\n")); err == nil {
		t.Fatal("ragged row accepted")
	}
	if _, err := parseFigureCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty CSV accepted")
	}
}

func TestCheckStructural(t *testing.T) {
	f := mustCSV(t, sampleCSV)
	// parts/q: placed beats rr only from dims 4 on (the dims-2 row was
	// made a violation above), so the gate must depend on min-x.
	if n, err := checkStructural(f, "placed parts/q<rr parts/q", 4); err != nil || n != 3 {
		t.Fatalf("min-x 4: n=%d err=%v", n, err)
	}
	if _, err := checkStructural(f, "placed parts/q<rr parts/q", math.Inf(-1)); err == nil {
		t.Fatal("dims-2 violation not caught without min-x")
	}
	// msgs/q holds everywhere.
	if n, err := checkStructural(f, "placed msgs/q<rr msgs/q", math.Inf(-1)); err != nil || n != 4 {
		t.Fatalf("msgs gate: n=%d err=%v", n, err)
	}
	// Equality is a violation: the gate is strict.
	eq := mustCSV(t, "dims,a,b\n8,2.00,2.00\n")
	if _, err := checkStructural(eq, "a<b", 0); err == nil {
		t.Fatal("equal values passed a strict gate")
	}
	// A require that filters away every row must not silently pass.
	if n, err := checkStructural(f, "placed msgs/q<rr msgs/q", 32); err != nil || n != 0 {
		t.Fatalf("empty filter: n=%d err=%v", n, err)
	}
	// Unknown columns and malformed expressions are errors, not no-ops.
	if _, err := checkStructural(f, "nope<rr msgs/q", 0); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := checkStructural(f, "just-one-side", 0); err == nil {
		t.Fatal("expression without < accepted")
	}
	// Series names keep their spaces; stray padding around < is trimmed.
	if n, err := checkStructural(f, "placed msgs/q < rr msgs/q", 8); err != nil || n != 2 {
		t.Fatalf("padded expression: n=%d err=%v", n, err)
	}
	// An empty cell (series without a point at that X) is an error.
	gap := mustCSV(t, "dims,a,b\n8,,2.00\n")
	if _, err := checkStructural(gap, "a<b", 0); err == nil {
		t.Fatal("empty cell accepted")
	}
}
