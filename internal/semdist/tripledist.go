package semdist

import (
	"fmt"
	"math"
	"strconv"

	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// Weights are the α, β, γ coefficients of Eq. 1. They must be
// non-negative and sum to 1.
type Weights struct {
	Alpha float64 // subject weight
	Beta  float64 // predicate weight
	Gamma float64 // object weight
}

// DefaultWeights weight the predicate and object slightly below the
// subject; the inconsistency case study is most sensitive to Beta
// (see the weight ablation bench).
var DefaultWeights = Weights{Alpha: 0.4, Beta: 0.3, Gamma: 0.3}

// Validate checks non-negativity and Σ = 1 (within float tolerance).
func (w Weights) Validate() error {
	if w.Alpha < 0 || w.Beta < 0 || w.Gamma < 0 {
		return fmt.Errorf("semdist: negative weight in %+v", w)
	}
	if s := w.Alpha + w.Beta + w.Gamma; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("semdist: weights sum to %g, want 1", s)
	}
	return nil
}

// Options configure a Metric.
type Options struct {
	// Weights are Eq. 1's α, β, γ. Zero value selects DefaultWeights.
	Weights Weights
	// Concept is the taxonomy measure for concept/concept pairs.
	// Nil selects WuPalmer (the paper's example measure).
	Concept ConceptMeasure
	// NumericLiterals, when true, compares int/float literals by
	// normalized absolute difference |a−b|/(|a|+|b|) instead of
	// Levenshtein on their lexical forms. The paper prescribes a string
	// distance for all same-typed literals; this switch is an ablation.
	NumericLiterals bool
}

// Metric computes the semantic distance between triples (Eq. 1). It
// holds no lock and no mutable state: New freezes the registry (a later
// vocab.Registry.Register fails), copies its prefix table and computes
// one dense distance matrix per vocabulary, and every method after that
// only reads. Safe for concurrent use.
type Metric struct {
	w       Weights
	numeric bool
	vocabs  map[string]*conceptTable // by prefix
}

// conceptTable is one vocabulary as the metric sees it: name lookup
// plus the V×V matrix of the configured measure. Vocabularies are small
// (tens to a few hundred concepts), so the matrix is cheap and makes a
// concept pair an array load.
type conceptTable struct {
	v   *vocab.Vocabulary
	mat []float64 // row-major V×V
}

func newConceptTable(v *vocab.Vocabulary, measure ConceptMeasure) *conceptTable {
	n := v.Len()
	t := &conceptTable{v: v, mat: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := measure(v, vocab.ConceptID(i), vocab.ConceptID(j))
			t.mat[i*n+j] = d
			t.mat[j*n+i] = d
		}
	}
	return t
}

// New builds a Metric over the vocabularies in reg and freezes reg:
// the metric resolves every term against the vocabularies registered at
// this point, so a registration it could not see is refused (an error
// from Register) rather than silently compared by surface form.
func New(reg *vocab.Registry, opts Options) (*Metric, error) {
	w := opts.Weights
	if w == (Weights{}) {
		w = DefaultWeights
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	c := opts.Concept
	if c == nil {
		c = WuPalmer
	}
	if reg == nil {
		return nil, fmt.Errorf("semdist: nil vocabulary registry")
	}
	reg.Freeze()
	m := &Metric{w: w, numeric: opts.NumericLiterals, vocabs: make(map[string]*conceptTable)}
	for _, p := range reg.Prefixes() {
		v, _ := reg.Get(p)
		m.vocabs[p] = newConceptTable(v, c)
	}
	return m, nil
}

// MustNew is New for static setup; it panics on error.
func MustNew(reg *vocab.Registry, opts Options) *Metric {
	m, err := New(reg, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Weights returns the Eq. 1 coefficients in use.
func (m *Metric) Weights() Weights { return m.w }

// Term is a triple.Term resolved against the metric's vocabularies:
// the work of a term distance that depends on one term only, done
// once. The zero value is the resolved empty string literal.
type Term struct {
	triple.Term
	voc *conceptTable   // nil for literals and for concepts whose prefix or name is unknown
	id  vocab.ConceptID // meaningful when voc != nil
}

// Triple is a triple.Triple with its three terms resolved.
type Triple struct {
	Subject, Predicate, Object Term
}

// Unresolved returns the triple r was resolved from.
func (r Triple) Unresolved() triple.Triple {
	return triple.Triple{Subject: r.Subject.Term, Predicate: r.Predicate.Term, Object: r.Object.Term}
}

// resolveTerm looks t up in the metric's vocabularies.
func (m *Metric) resolveTerm(t triple.Term) Term {
	r := Term{Term: t}
	if t.IsConcept() {
		if voc, ok := m.vocabs[t.Prefix]; ok {
			if id, ok := voc.v.Lookup(t.Value); ok {
				r.voc, r.id = voc, id
			}
		}
	}
	return r
}

// Resolve resolves the three terms of t. A resolved triple is only
// meaningful to the metric that resolved it.
func (m *Metric) Resolve(t triple.Triple) Triple {
	return Triple{
		Subject:   m.resolveTerm(t.Subject),
		Predicate: m.resolveTerm(t.Predicate),
		Object:    m.resolveTerm(t.Object),
	}
}

// Distance computes Eq. 1 between two triples. The result is in [0, 1].
func (m *Metric) Distance(a, b triple.Triple) float64 {
	ra, rb := m.Resolve(a), m.Resolve(b)
	return m.distance(&ra, &rb)
}

// ResolvedDistance is Distance over triples resolved by this metric;
// Distance(a, b) == ResolvedDistance(Resolve(a), Resolve(b)) bit for bit.
func (m *Metric) ResolvedDistance(a, b Triple) float64 { return m.distance(&a, &b) }

func (m *Metric) distance(a, b *Triple) float64 {
	return m.w.combine(
		m.termDistance(&a.Subject, &b.Subject),
		m.termDistance(&a.Predicate, &b.Predicate),
		m.termDistance(&a.Object, &b.Object))
}

// combine is Eq. 1's weighted sum, in the one evaluation order every
// caller shares.
func (w Weights) combine(s, p, o float64) float64 {
	return w.Alpha*s + w.Beta*p + w.Gamma*o
}

// TermDistance computes the component distance between two terms,
// dispatching per §III-A:
//
//   - both literals of the same type → string distance (Levenshtein,
//     normalized), or relative numeric difference with NumericLiterals;
//   - both concepts of the same vocabulary → the configured taxonomy
//     measure;
//   - anything else (cross-vocabulary concepts, unresolvable names,
//     literal vs concept, differently-typed literals) → fallback to
//     normalized Levenshtein over the surface forms, the most
//     conservative comparison available.
func (m *Metric) TermDistance(a, b triple.Term) float64 {
	ra, rb := m.resolveTerm(a), m.resolveTerm(b)
	return m.termDistance(&ra, &rb)
}

// termDistance is the one dispatch kernel of the package. It takes no
// lock, probes no map and does not allocate (beyond Levenshtein's spill
// for surface forms over 64 runes).
func (m *Metric) termDistance(a, b *Term) float64 {
	if a.Term.Equal(b.Term) {
		return 0
	}
	if a.IsLiteral() && b.IsLiteral() && a.LitType == b.LitType {
		if m.numeric && (a.LitType == triple.LitInt || a.LitType == triple.LitFloat) {
			return numericDistance(a.Value, b.Value)
		}
		return NormalizedLevenshtein(a.Value, b.Value)
	}
	// A resolved concept's table stands for its prefix: equal tables
	// means same vocabulary, both names known.
	if a.voc != nil && a.voc == b.voc {
		return a.voc.mat[int(a.id)*a.voc.v.Len()+int(b.id)]
	}
	return NormalizedLevenshtein(a.Value, b.Value)
}

func numericDistance(a, b string) float64 {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA != nil || errB != nil {
		return NormalizedLevenshtein(a, b)
	}
	if fa == fb {
		return 0
	}
	return clamp01(math.Abs(fa-fb) / (math.Abs(fa) + math.Abs(fb)))
}
