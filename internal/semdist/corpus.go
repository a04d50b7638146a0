package semdist

import "semtree/internal/triple"

// Corpus is a dictionary-encoded triple set — a term table and, per
// triple, three ordinals into it, as triple.Store.Encoded hands them
// out — prepared for one-to-all distance scans: every distinct term is
// resolved once, and Row computes the distances from one triple to all
// n with one term distance per distinct (position, term) pair — O(D)
// kernel calls and n weighted sums instead of n Eq. 1 evaluations —
// which is what a FastMap build asks for.
//
// A Corpus is meant to live for one build and is not safe for
// concurrent use (Row reuses scratch rows). It reads ids and never
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
	c := &Corpus{m: m, terms: make([]Term, len(terms)), ids: ids}
	for ord, t := range terms {
		c.terms[ord] = m.resolveTerm(t)
	}
	seen := make([]uint8, len(terms)) // bit pos: ordinal already listed in at[pos]
	for _, id := range ids {
		for pos, ord := range id {
			if bit := uint8(1) << pos; seen[ord]&bit == 0 {
				seen[ord] |= bit
				c.at[pos] = append(c.at[pos], ord)
			}
		}
	}
	for pos := range c.rows {
		c.rows[pos] = make([]float64, len(terms))
	}
	return c
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

// Row writes into dst[i] the Eq. 1 distance from triple from to triple
// i, for every i < Len(): the same bits as
// ResolvedDistance(Triple(from), Triple(i)).
func (c *Corpus) Row(from int, dst []float64) {
	for pos, at := range c.at {
		a := &c.terms[c.ids[from][pos]]
		row := c.rows[pos]
		for _, ord := range at {
			row[ord] = c.m.termDistance(a, &c.terms[ord])
		}
	}
	s, p, o := c.rows[0], c.rows[1], c.rows[2]
	for i, id := range c.ids {
		dst[i] = c.m.w.combine(s[id[0]], p[id[1]], o[id[2]])
	}
}
