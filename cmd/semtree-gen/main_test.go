package main

import (
	"bytes"
	"strings"
	"testing"

	"semtree/internal/triple"
)

// TestTriplesMode: `-triples N -seed S` emits exactly N lines that
// triple.ReadAll parses back, and the same seed emits the same bytes.
func TestTriplesMode(t *testing.T) {
	gen := func(seed string) string {
		var out bytes.Buffer
		if err := run([]string{"-triples", "200", "-seed", seed}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	a := gen("7")
	if got := strings.Count(a, "\n"); got != 200 {
		t.Fatalf("emitted %d lines, want 200", got)
	}
	ts, err := triple.ReadAll(strings.NewReader(a))
	if err != nil || len(ts) != 200 {
		t.Fatalf("ReadAll parsed %d triples, err %v; want 200", len(ts), err)
	}
	if gen("7") != a {
		t.Fatal("same seed produced different output")
	}
	if gen("8") == a {
		t.Fatal("different seeds produced identical output")
	}
}
