package semdist

import "semtree/internal/triple"

// Corpus is a set of triples interned for one-to-all distance scans:
// every distinct term is resolved once per position it occurs in, and a
// triple is three ordinals into those tables. Row then computes the
// distances from one triple to all n with one term distance per
// distinct term — O(D) kernel calls and n weighted sums instead of n
// Eq. 1 evaluations — which is what a FastMap build asks for.
//
// A Corpus is meant to live for one build and is not safe for
// concurrent use (Row reuses scratch rows).
type Corpus struct {
	m     *Metric
	terms [3][]Term                // distinct terms by position, first-seen order
	index [3]map[triple.Term]int32 // term → ordinal in terms
	ids   [][3]int32               // per triple: subject, predicate, object ordinal
	rows  [3][]float64             // Row's per-position term-distance rows
}

// NewCorpus returns an empty corpus under m with room for n triples.
func NewCorpus(m *Metric, n int) *Corpus {
	c := &Corpus{m: m, ids: make([][3]int32, 0, n)}
	for pos := range c.index {
		c.index[pos] = make(map[triple.Term]int32)
	}
	return c
}

// Add appends t; its index is the number of triples added before it.
func (c *Corpus) Add(t triple.Triple) {
	var id [3]int32
	for pos := range id {
		term := t.Project(pos)
		ord, ok := c.index[pos][term]
		if !ok {
			ord = int32(len(c.terms[pos]))
			c.index[pos][term] = ord
			c.terms[pos] = append(c.terms[pos], c.m.resolveTerm(term))
		}
		id[pos] = ord
	}
	c.ids = append(c.ids, id)
}

// Len returns the number of triples added.
func (c *Corpus) Len() int { return len(c.ids) }

// Triple returns the i-th triple in resolved form.
func (c *Corpus) Triple(i int) Triple {
	id := c.ids[i]
	return Triple{
		Subject:   c.terms[0][id[0]],
		Predicate: c.terms[1][id[1]],
		Object:    c.terms[2][id[2]],
	}
}

// Row writes into dst[i] the Eq. 1 distance from triple from to triple
// i, for every i < Len(): the same bits as
// ResolvedDistance(Triple(from), Triple(i)).
func (c *Corpus) Row(from int, dst []float64) {
	for pos, terms := range c.terms {
		if len(c.rows[pos]) != len(terms) {
			c.rows[pos] = make([]float64, len(terms))
		}
		a := &terms[c.ids[from][pos]]
		for ord := range terms {
			c.rows[pos][ord] = c.m.termDistance(a, &terms[ord])
		}
	}
	s, p, o := c.rows[0], c.rows[1], c.rows[2]
	for i, id := range c.ids {
		dst[i] = c.m.w.combine(s[id[0]], p[id[1]], o[id[2]])
	}
}
