package semdist

import "semtree/internal/triple"

// Corpus is a dictionary-encoded triple set — a term table and, per
// triple, three ordinals into it, as triple.Store.Encoded hands them
// out — prepared for one-to-all distance scans: every distinct term is
// resolved once, and Row computes the distances from one triple to all
// n with one term distance per distinct (position, term) pair — O(D)
// kernel calls and n weighted sums instead of n Eq. 1 evaluations —
// which is what a FastMap build asks for, and what a projection under
// fixed pivots asks for from each pivot (RowFrom).
//
// A Corpus is meant to live for one build or projection. It prepares
// one Row at a time (each Row reuses the same scratch rows, so a fill
// is valid only until the next Row call), but the fill a Row returns
// may run concurrently on disjoint ranges. It reads ids and never
// writes or copies them.
type Corpus struct {
	m     *Metric
	terms []Term             // terms[ord] resolved
	ids   [][3]triple.TermID // per triple: subject, predicate, object ordinal
	at    [3][]triple.TermID // by position: the ordinals that occur there
	rows  [3][]float64       // Row's per-position term-distance rows, by ordinal
}

// NewCorpus resolves terms under m and notes, from one pass over ids,
// which of them occur as subject, as predicate and as object. Every
// ordinal in ids must index terms.
func NewCorpus(m *Metric, terms []triple.Term, ids [][3]triple.TermID) *Corpus {
	resolved := make([]Term, len(terms))
	for ord, t := range terms {
		resolved[ord] = m.resolveTerm(t)
	}
	return (&Corpus{m: m, terms: resolved}).Over(ids)
}

// Over returns a corpus over ids, ordinals into the term table c was
// made from, that shares c's resolved terms: a subset or a reordering
// of c's triples, say, prepared without resolving a term again. The two
// corpora prepare their rows apart.
func (c *Corpus) Over(ids [][3]triple.TermID) *Corpus {
	o := &Corpus{m: c.m, terms: c.terms, ids: ids}
	seen := make([]uint8, len(c.terms)) // bit pos: ordinal already listed in at[pos]
	for _, id := range ids {
		for pos, ord := range id {
			if bit := uint8(1) << pos; seen[ord]&bit == 0 {
				seen[ord] |= bit
				o.at[pos] = append(o.at[pos], ord)
			}
		}
	}
	for pos := range o.rows {
		o.rows[pos] = make([]float64, len(c.terms))
	}
	return o
}

// Len returns the number of triples.
func (c *Corpus) Len() int { return len(c.ids) }

// Triple returns the i-th triple in resolved form.
func (c *Corpus) Triple(i int) Triple {
	id := c.ids[i]
	return Triple{
		Subject:   c.terms[id[0]],
		Predicate: c.terms[id[1]],
		Object:    c.terms[id[2]],
	}
}

// Row prepares the one-to-all scan from triple from — one term
// distance per distinct (position, term) pair — and returns its fill:
// fill(lo, dst) writes into dst[j] the Eq. 1 distance from triple from
// to triple lo+j, the same bits as
// ResolvedDistance(Triple(from), Triple(lo+j)). The fill is valid until
// the next Row call and may run concurrently on disjoint ranges.
func (c *Corpus) Row(from int) func(lo int, dst []float64) {
	id := c.ids[from]
	return c.row([3]*Term{&c.terms[id[0]], &c.terms[id[1]], &c.terms[id[2]]})
}

// RowFrom is Row from a triple this metric resolved, which need not be
// one of the corpus's — a FastMap pivot, say: its fill writes the same
// bits as ResolvedDistance(a, Triple(lo+j)).
func (c *Corpus) RowFrom(a Triple) func(lo int, dst []float64) {
	return c.row([3]*Term{&a.Subject, &a.Predicate, &a.Object})
}

// row prepares the scan from the triple whose terms are a, by position.
func (c *Corpus) row(a [3]*Term) func(lo int, dst []float64) {
	for pos, at := range c.at {
		row := c.rows[pos]
		for _, ord := range at {
			row[ord] = c.m.termDistance(a[pos], &c.terms[ord])
		}
	}
	s, p, o := c.rows[0], c.rows[1], c.rows[2]
	return func(lo int, dst []float64) {
		for i, id := range c.ids[lo : lo+len(dst)] {
			dst[i] = c.m.w.combine(s[id[0]], p[id[1]], o[id[2]])
		}
	}
}
