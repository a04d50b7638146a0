// Package triple implements the RDF-style data model used by SemTree:
// terms, (subject, predicate, object) triples, a Turtle-like textual
// syntax, and an append-only triple store with document provenance.
// The store is dictionary-encoded — distinct terms and provenance
// strings are kept once and a stored triple is a row of ids — and
// hands its term table and id rows to the index build as they are
// (Store.Encoded), so the repository has one term interner.
//
// The model follows the paper's convention: a term written X:x is a
// concept x whose meaning is resolved in the vocabulary registered under
// prefix X; a bare term is a concept in the standard vocabulary; a quoted
// term ('OBSW001') is a literal. Literals carry an inferred type so that
// the distance layer can dispatch on it (the paper's case (i): "two
// triples' elements are both literals/constants of the same type").
package triple

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind distinguishes vocabulary concepts from literal constants.
type TermKind uint8

const (
	// Concept is a term resolved against a vocabulary (taxonomy).
	Concept TermKind = iota
	// Literal is a typed constant (string, int, float, bool).
	Literal
)

// String returns a human-readable kind name.
func (k TermKind) String() string {
	switch k {
	case Concept:
		return "concept"
	case Literal:
		return "literal"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// LiteralType is the inferred type of a literal term.
type LiteralType uint8

const (
	// LitString is an uninterpreted character string.
	LitString LiteralType = iota
	// LitInt is a base-10 integer.
	LitInt
	// LitFloat is a decimal floating point number.
	LitFloat
	// LitBool is true or false.
	LitBool
)

// String returns a human-readable literal type name.
func (t LiteralType) String() string {
	switch t {
	case LitString:
		return "string"
	case LitInt:
		return "int"
	case LitFloat:
		return "float"
	case LitBool:
		return "bool"
	default:
		return fmt.Sprintf("LiteralType(%d)", uint8(t))
	}
}

// StandardPrefix is the prefix assumed for concepts written without an
// explicit vocabulary prefix ("If X is not specified, we use a standard
// vocabulary" — §III-A).
const StandardPrefix = "std"

// Term is one element of a triple: either a concept in a vocabulary or a
// typed literal. The zero value is the empty string literal.
type Term struct {
	Kind    TermKind
	Prefix  string // vocabulary prefix; meaningful only for concepts
	Value   string // concept name or literal lexical form
	LitType LiteralType
}

// NewConcept returns a concept term in the vocabulary registered under
// prefix. An empty prefix selects the standard vocabulary.
func NewConcept(prefix, value string) Term {
	if prefix == "" {
		prefix = StandardPrefix
	}
	return Term{Kind: Concept, Prefix: prefix, Value: value}
}

// NewLiteral returns a literal term, inferring its type from the lexical
// form: integers, floats and booleans are recognized, everything else is
// a string.
func NewLiteral(value string) Term {
	return Term{Kind: Literal, Value: value, LitType: InferLiteralType(value)}
}

// NewString returns a string literal term without type inference.
func NewString(value string) Term {
	return Term{Kind: Literal, Value: value, LitType: LitString}
}

// InferLiteralType classifies a lexical form as int, float, bool or string.
func InferLiteralType(s string) LiteralType {
	if s == "true" || s == "false" {
		return LitBool
	}
	if s == "" || !numberStart(s[0]) {
		return LitString // strconv would reject it, allocating its error
	}
	if _, err := strconv.ParseInt(s, 10, 64); err == nil {
		return LitInt
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return LitFloat
	}
	return LitString
}

// numberStart reports whether strconv.ParseInt (base 10) or ParseFloat
// accepts any string that starts with c: a sign, a digit, a point, or
// the first letter of inf, infinity or nan.
func numberStart(c byte) bool {
	switch c {
	case '+', '-', '.', 'i', 'I', 'n', 'N':
		return true
	}
	return '0' <= c && c <= '9'
}

// IsConcept reports whether the term is a vocabulary concept.
func (t Term) IsConcept() bool { return t.Kind == Concept }

// IsLiteral reports whether the term is a literal constant.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// Equal reports whether two terms are identical (same kind, prefix,
// value, and — for literals — the same inferred type).
func (t Term) Equal(u Term) bool {
	if t.Kind != u.Kind || t.Value != u.Value {
		return false
	}
	if t.Kind == Concept {
		return t.Prefix == u.Prefix
	}
	return t.LitType == u.LitType
}

// String renders the term in the paper's Turtle-like notation:
// concepts as Prefix:value (the standard prefix is omitted), literals
// single-quoted with \ written \\ and ' written \', so that ParseTerm
// reads any value back.
func (t Term) String() string {
	if t.Kind == Literal {
		return quote(t.Value)
	}
	if t.Prefix == "" || t.Prefix == StandardPrefix {
		return t.Value
	}
	return t.Prefix + ":" + t.Value
}

// quote single-quotes a literal's value with the escapes unquote undoes.
func quote(v string) string {
	var b strings.Builder
	b.Grow(len(v) + 2 + strings.Count(v, `\`) + strings.Count(v, `'`))
	b.WriteByte('\'')
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' || v[i] == '\'' {
			b.WriteByte('\\')
		}
		b.WriteByte(v[i])
	}
	b.WriteByte('\'')
	return b.String()
}

// Key returns a canonical map key for the term.
func (t Term) Key() string {
	if t.Kind == Literal {
		return "L" + t.LitType.String() + "\x00" + t.Value
	}
	p := t.Prefix
	if p == "" {
		p = StandardPrefix
	}
	return "C" + p + "\x00" + t.Value
}
