// Package semdist implements SemTree's semantic distance layer (§III-A):
// the weighted triple distance of Eq. 1,
//
//	d(ti,tj) = α·ds(si,sj) + β·dp(pi,pj) + γ·do(oi,oj),  α+β+γ = 1,
//
// with component distances dispatched on term type: string distance
// (Levenshtein) when both elements are literals of the same type, and a
// taxonomy-based measure (Wu & Palmer, Resnik, Lin, ...) when both are
// concepts of the same vocabulary. All distances are normalized to
// [0, 1], so Eq. 1 is itself in [0, 1].
//
// # Resolve once
//
// What a term distance needs from one term alone — its kind and literal
// type, the vocabulary its prefix names, the concept its name resolves
// to — is computed once per term by Metric.Resolve, and a single
// dispatch kernel compares two resolved terms with no lock, no map
// probe and no allocation. Metric.Distance on plain triples is Resolve
// twice plus that kernel, so the string API and the resolved one
// (Resolve, ResolvedDistance, and Corpus for one-to-all scans over an
// interned triple set) return the same bits by construction.
//
// # What is cached
//
// One dense V×V matrix of the configured concept measure per
// vocabulary, built in New. Nothing else: literal pairs are recomputed
// every time by an allocation-free Levenshtein, so a Metric's memory
// does not depend on the queries it has seen.
//
// # Concurrency
//
// A Metric is immutable after New and every method only reads; use it
// from any number of goroutines. New freezes the vocab.Registry it is
// given: registering a vocabulary afterwards is an error, because the
// metric (and every embedding built under it) resolved its terms
// against the vocabularies present at New.
package semdist

import "unicode/utf8"

// Levenshtein returns the edit distance (insertions, deletions,
// substitutions, unit cost) between a and b, computed over runes. It
// does not allocate for inputs of at most stackRunes runes.
func Levenshtein(a, b string) int {
	d, _ := editDistance(a, b)
	return d
}

// NormalizedLevenshtein returns Levenshtein(a, b) divided by the length
// of the longer string, yielding a distance in [0, 1]. Two empty strings
// have distance 0.
func NormalizedLevenshtein(a, b string) float64 {
	d, longer := editDistance(a, b)
	if longer == 0 {
		return 0
	}
	return float64(d) / float64(longer)
}

// stackRunes is the input length (in runes) up to which the edit
// distance runs entirely on the stack; longer inputs spill to the heap
// through append and make.
const stackRunes = 64

// editDistance returns the edit distance between a and b and the rune
// length of the longer of the two. Two ASCII inputs are compared in
// place, byte by byte, with the bit-parallel recurrence when the
// shorter fits a machine word; anything else is decoded to runes and
// goes through the row recurrence.
func editDistance(a, b string) (dist, longer int) {
	ascii := isASCII(a) && isASCII(b)
	if ascii {
		longer = max(len(a), len(b))
		// Trim common prefix and suffix: they never change the distance.
		for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
			a, b = a[1:], b[1:]
		}
		for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
			a, b = a[:len(a)-1], b[:len(b)-1]
		}
		if len(a) < len(b) {
			a, b = b, a
		}
		if len(b) == 0 {
			return len(a), longer
		}
		if len(b) <= 64 {
			return levBits(a, b), longer
		}
	}
	var bufA, bufB [stackRunes]rune
	ra, rb := appendRunes(bufA[:0], a), appendRunes(bufB[:0], b)
	if !ascii {
		longer = max(len(ra), len(rb))
	}
	return levRow(ra, rb), longer
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// levBits is the bit-parallel edit distance of Myers (1999) in Hyyrö's
// global-distance form: one column of the DP matrix is held as the
// vertical +1/−1 deltas in two machine words, so a column costs a dozen
// word operations whatever the pattern length. text and pattern are
// ASCII and 1 ≤ len(pattern) ≤ 64.
func levBits(text, pattern string) int {
	// The positions of a byte c in pattern are lo[c&15] & hi[c>>4&7]: a
	// position is in both exactly when both nibbles match. Two small
	// tables instead of one entry per byte value keep the zeroing
	// cheaper than the recurrence.
	var lo [16]uint64
	var hi [utf8.RuneSelf >> 4]uint64
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		lo[c&15] |= 1 << uint(i)
		hi[c>>4&7] |= 1 << uint(i)
	}
	pv, mv := ^uint64(0), uint64(0) // vertical deltas: +1 everywhere in column 0
	last := uint64(1) << uint(len(pattern)-1)
	score := len(pattern)
	for i := 0; i < len(text); i++ {
		eq := lo[text[i]&15] & hi[text[i]>>4&7]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1 // the top row of the matrix grows by one per column
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// levRow is the single-row Wagner–Fischer recurrence over two rune
// sequences.
func levRow(a, b []rune) int {
	// Trim common prefix and suffix: they never change the distance.
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	if len(a) < len(b) {
		a, b = b, a // keep the DP row short
	}
	if len(b) == 0 {
		return len(a)
	}
	var buf [stackRunes + 1]int
	row := buf[:]
	if len(b) >= len(buf) {
		row = make([]int, len(b)+1)
	}
	row = row[:len(b)+1]
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		diag := row[0] // the previous row's [j-1]
		row[0] = i
		for j := 1; j <= len(b); j++ {
			up := row[j] // the previous row's [j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			row[j] = min(up+1, row[j-1]+1, diag+cost)
			diag = up
		}
	}
	return row[len(b)]
}
