package semdist

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"accept_cmd", "block_cmd", 6},
		{"start-up", "shutdown", 7},
		{"OBSW001", "OBSW002", 1},
		{"résumé", "resume", 2}, // rune-level, not byte-level
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetry(t *testing.T) {
	f := func(a, b string) bool {
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinIdentity(t *testing.T) {
	f := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinBounds(t *testing.T) {
	// |len(a)−len(b)| ≤ d ≤ max(len(a), len(b)), lengths in runes.
	f := func(a, b string) bool {
		ra, rb := []rune(a), []rune(b)
		d := Levenshtein(a, b)
		lo := len(ra) - len(rb)
		if lo < 0 {
			lo = -lo
		}
		hi := len(ra)
		if len(rb) > hi {
			hi = len(rb)
		}
		return lo <= d && d <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizedLevenshteinRange(t *testing.T) {
	f := func(a, b string) bool {
		d := NormalizedLevenshtein(a, b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if d := NormalizedLevenshtein("", ""); d != 0 {
		t.Errorf("NormalizedLevenshtein(\"\", \"\") = %f, want 0", d)
	}
	if d := NormalizedLevenshtein("abc", "xyz"); d != 1 {
		t.Errorf("maximally different strings: %f, want 1", d)
	}
}

// referenceLevenshtein is the implementation this package shipped
// before the allocation-free rewrite (two []rune conversions, two heap
// rows); it is kept as the oracle for the property and fuzz tests.
func referenceLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	for len(ra) > 0 && len(rb) > 0 && ra[0] == rb[0] {
		ra, rb = ra[1:], rb[1:]
	}
	for len(ra) > 0 && len(rb) > 0 && ra[len(ra)-1] == rb[len(rb)-1] {
		ra, rb = ra[:len(ra)-1], rb[:len(rb)-1]
	}
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func referenceNormalized(a, b string) float64 {
	m := max(len([]rune(a)), len([]rune(b)))
	if m == 0 {
		return 0
	}
	return float64(referenceLevenshtein(a, b)) / float64(m)
}

func checkAgainstReference(t *testing.T, a, b string) {
	t.Helper()
	if got, want := Levenshtein(a, b), referenceLevenshtein(a, b); got != want {
		t.Errorf("Levenshtein(%q, %q) = %d, reference %d", a, b, got, want)
	}
	if got, want := NormalizedLevenshtein(a, b), referenceNormalized(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("NormalizedLevenshtein(%q, %q) = %v, reference %v", a, b, got, want)
	}
}

// TestLevenshteinMatchesReference drives every path of the rewrite
// (bit-parallel ASCII, rune rows on the stack, heap spill beyond 64
// symbols, the 64/65 boundary, invalid UTF-8) against the old code.
func TestLevenshteinMatchesReference(t *testing.T) {
	long := strings.Repeat("abcdefghij", 13) // 130 ASCII bytes
	fixed := [][2]string{
		{"", ""}, {"", "x"}, {"é", ""}, {"\xff", "\xfe\xff"},
		{long, long[3:] + "xyz"},
		{long[:64], long[1:65]}, {long[:65], long[2:67]}, {long[:63] + "é", long[1:64]},
		{strings.Repeat("é", 64), strings.Repeat("è", 65)},
		{strings.Repeat("日本", 40), strings.Repeat("本日", 41)},
		{"heater_2", "battery_bank"}, {"OBSW001", "OBSW002"},
	}
	for _, c := range fixed {
		checkAgainstReference(t, c[0], c[1])
		checkAgainstReference(t, c[1], c[0])
	}
	// Random strings over small alphabets, so matches are frequent and
	// the recurrences do real work: ASCII only, multi-byte only, mixed.
	alphabets := [][]rune{[]rune("ab_0"), []rune("éß日"), []rune("aé0日_")}
	r := rand.New(rand.NewSource(7))
	gen := func(alpha []rune, maxLen int) string {
		out := make([]rune, r.Intn(maxLen+1))
		for i := range out {
			out[i] = alpha[r.Intn(len(alpha))]
		}
		return string(out)
	}
	for i := 0; i < 6000; i++ {
		alpha := alphabets[i%len(alphabets)]
		maxLen := 12
		if i%10 == 0 {
			maxLen = 150 // beyond the stack buffers and the machine word
		}
		checkAgainstReference(t, gen(alpha, maxLen), gen(alpha, maxLen))
	}
}

func FuzzLevenshtein(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("résumé", "resume")
	f.Add("", "\xff")
	f.Fuzz(func(t *testing.T, a, b string) {
		checkAgainstReference(t, a, b)
	})
}

func TestLevenshteinDoesNotAllocateOnShortInputs(t *testing.T) {
	pairs := [][2]string{
		{"accept_cmd", "block_cmd"},
		{"résumé", "resume"},
		{strings.Repeat("x", 64), strings.Repeat("y", 64)},
		{strings.Repeat("é", 64), strings.Repeat("y", 64)},
	}
	for _, p := range pairs {
		if n := testing.AllocsPerRun(100, func() { NormalizedLevenshtein(p[0], p[1]) }); n != 0 {
			t.Errorf("NormalizedLevenshtein(%q, %q): %v allocs, want 0", p[0], p[1], n)
		}
	}
}
