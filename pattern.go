package semtree

import (
	"context"
	"fmt"

	"semtree/internal/triple"
)

// Pattern is a triple template with optional positions: nil terms are
// wildcards. Pattern queries are translated into multi-dimensional
// range queries over the index (the strategy the paper cites from
// Tsatsanifos et al. [7]): bound positions constrain the semantic
// distance, wildcard positions contribute their full Eq. 1 weight as
// slack, and candidates are verified exactly on the bound positions.
type Pattern struct {
	Subject   *triple.Term
	Predicate *triple.Term
	Object    *triple.Term
}

// ParsePattern parses a Turtle-like pattern where '?' marks a wildcard:
//
//	(?, Fun:accept_cmd, ?)
//	('OBSW001', ?, CmdType:start-up)
//
// It splits positions as triple.ParseTriple does, so a comma inside a
// quoted literal does not end a position.
func ParsePattern(s string) (Pattern, error) {
	parts, err := triple.SplitTerms(s)
	if err != nil {
		return Pattern{}, fmt.Errorf("semtree: pattern: %w", err)
	}
	var out [3]*triple.Term
	for i, part := range parts {
		if part == "?" {
			continue
		}
		term, err := triple.ParseTerm(part)
		if err != nil {
			return Pattern{}, err
		}
		out[i] = &term
	}
	return Pattern{Subject: out[0], Predicate: out[1], Object: out[2]}, nil
}

// String renders the pattern with '?' wildcards.
func (p Pattern) String() string {
	pos := func(t *triple.Term) string {
		if t == nil {
			return "?"
		}
		return t.String()
	}
	return "(" + pos(p.Subject) + ", " + pos(p.Predicate) + ", " + pos(p.Object) + ")"
}

// Bound reports how many positions are bound.
func (p Pattern) Bound() int {
	n := 0
	for _, t := range []*triple.Term{p.Subject, p.Predicate, p.Object} {
		if t != nil {
			n++
		}
	}
	return n
}

// embeddingSlack absorbs FastMap distortion when translating the
// semantic radius into the embedded space.
const embeddingSlack = 0.05

// MatchPattern returns stored triples whose *bound-position* semantic
// distance to the pattern is at most d, ranked ascending, at most limit
// results (0 = unlimited). Wildcards are free: a pattern with only the
// predicate bound, d=0, returns every triple using exactly that
// predicate (up to embedding approximation, see below).
//
// Internally the wildcards are filled with an empty-literal placeholder
// whose term distance to anything is maximal, so a range query with
// radius d + Σ(wildcard weights) + slack over-approximates the
// candidate set; candidates are then verified exactly per position.
// Like every SemTree retrieval, completeness is bounded by the FastMap
// embedding quality.
func (ix *Index) MatchPattern(ctx context.Context, p Pattern, d float64, limit int) ([]Match, error) {
	if d < 0 {
		return nil, fmt.Errorf("semtree: negative pattern radius %g", d)
	}
	if p.Bound() == 0 {
		return nil, fmt.Errorf("semtree: pattern with no bound positions")
	}
	w := ix.metric.Weights()
	weights := [3]float64{w.Alpha, w.Beta, w.Gamma}
	terms := [3]*triple.Term{p.Subject, p.Predicate, p.Object}

	placeholder := triple.NewString("")
	var qTerms [3]triple.Term
	slack := 0.0
	for i, t := range terms {
		if t == nil {
			qTerms[i] = placeholder
			slack += weights[i]
		} else {
			qTerms[i] = *t
		}
	}
	q := triple.New(qTerms[0], qTerms[1], qTerms[2])

	// ModeRange: a zero radius still means a range query.
	cands, err := ix.Searcher(WithMode(ModeRange), WithRadius(d+slack+embeddingSlack)).Search(ctx, q)
	if err != nil {
		return nil, err
	}
	var out []Match
	for _, c := range cands.Matches {
		boundDist := 0.0
		for i, t := range terms {
			if t == nil {
				continue
			}
			boundDist += weights[i] * ix.metric.TermDistance(*t, c.Triple.Project(i))
		}
		if boundDist <= d+1e-12 {
			c.Dist = boundDist
			out = append(out, c)
		}
	}
	sortMatches(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}
