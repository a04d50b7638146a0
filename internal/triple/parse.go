package triple

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// ParseError describes a syntax error with its input position.
type ParseError struct {
	Line int    // 1-based line number, 0 when unknown
	Pos  int    // 0-based byte offset within the line
	Msg  string // human-readable description
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("triple: parse error at line %d, pos %d: %s", e.Line, e.Pos, e.Msg)
	}
	return fmt.Sprintf("triple: parse error at pos %d: %s", e.Pos, e.Msg)
}

// ParseTerm parses a single term:
//
//	'quoted text'  → literal (type inferred)
//	Prefix:name    → concept in vocabulary Prefix
//	name           → concept in the standard vocabulary
//	42, 3.14, true → literal (unquoted literals of non-string type)
//
// Inside quotes \\ stands for one backslash and \' for a quote (the
// escapes Term.String writes); any other backslash stands for itself.
func ParseTerm(s string) (Term, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Term{}, &ParseError{Msg: "empty term"}
	}
	if s[0] == '\'' {
		if len(s) < 2 || s[len(s)-1] != '\'' {
			return Term{}, &ParseError{Msg: "unterminated quoted literal"}
		}
		return NewLiteral(unquote(s[1 : len(s)-1])), nil
	}
	// Unquoted numeric and boolean tokens are literals.
	if lt := InferLiteralType(s); lt != LitString {
		return Term{Kind: Literal, Value: s, LitType: lt}, nil
	}
	if i := strings.IndexByte(s, ':'); i >= 0 {
		prefix, name := s[:i], s[i+1:]
		if prefix == "" {
			return Term{}, &ParseError{Msg: "empty vocabulary prefix"}
		}
		if name == "" {
			return Term{}, &ParseError{Msg: "empty concept name after prefix " + prefix}
		}
		return NewConcept(prefix, name), nil
	}
	return NewConcept("", s), nil
}

// unquote undoes Term.String's two escapes in the body of a quoted
// literal.
func unquote(body string) string {
	if strings.IndexByte(body, '\\') < 0 {
		return body
	}
	b := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '\\' && i+1 < len(body) && (body[i+1] == '\\' || body[i+1] == '\'') {
			i++
			c = body[i]
		}
		b = append(b, c)
	}
	return string(b)
}

// ParseTriple parses one triple in the paper's Turtle-like notation:
//
//	('OBSW001', Fun:accept_cmd, CmdType:start-up)
//
// Surrounding parentheses are optional; a trailing period is accepted.
func ParseTriple(s string) (Triple, error) {
	parts, err := SplitTerms(s)
	if err != nil {
		return Triple{}, err
	}
	var t Triple
	if t.Subject, err = ParseTerm(parts[0]); err != nil {
		return Triple{}, err
	}
	if t.Predicate, err = ParseTerm(parts[1]); err != nil {
		return Triple{}, err
	}
	if t.Object, err = ParseTerm(parts[2]); err != nil {
		return Triple{}, err
	}
	return t, nil
}

// SplitTerms splits one triple of the notation into its three raw
// terms: outer white space, one trailing '.' and a pair of enclosing
// parentheses are dropped, and the rest splits on the commas outside
// single quotes, inside which a backslash escapes the next byte. Each
// term is a substring of s trimmed of white space, so a split that
// succeeds allocates nothing. ParseTriple, the stream readers and
// semtree.ParsePattern all tokenize with it.
func SplitTerms(s string) ([3]string, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, ".")
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		s = s[1 : len(s)-1]
	}
	var cut [2]int
	commas, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\' && inQuote:
			i++
		case c == '\'':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			if commas < len(cut) {
				cut[commas] = i
			}
			commas++
		}
	}
	if inQuote {
		return [3]string{}, &ParseError{Pos: len(s), Msg: "unterminated quoted literal"}
	}
	if commas != len(cut) {
		return [3]string{}, &ParseError{Msg: fmt.Sprintf("expected 3 terms, got %d", commas+1)}
	}
	return [3]string{
		strings.TrimSpace(s[:cut[0]]),
		strings.TrimSpace(s[cut[0]+1 : cut[1]]),
		strings.TrimSpace(s[cut[1]+1:]),
	}, nil
}

// readRows parses a stream of triples, one per line, into a table of
// terms and a row of indexes into it per triple, in line order. Blank
// lines and lines starting with '#' are skipped. ParseTerm is a pure
// function of a term's trimmed text, so it runs once per distinct
// spelling: the table holds one entry per spelling, and a line whose
// spellings were all seen before allocates nothing: each bufferful of
// whole lines becomes one string, and lines and terms are substrings of
// it. On error the results hold the lines parsed so far.
func readRows(r io.Reader) (terms []Term, rows [][3]TermID, err error) {
	index := make(map[string]TermID)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sc.Split(scanLineBlock)
	line := 0
	for sc.Scan() {
		block := string(sc.Bytes())
		for block != "" {
			var text string
			text, block, _ = strings.Cut(block, "\n")
			line++
			text = strings.TrimSpace(text)
			if text == "" || text[0] == '#' {
				continue
			}
			spelled, err := SplitTerms(text)
			if err != nil {
				return terms, rows, atLine(err, line)
			}
			var row [3]TermID
			for i, s := range spelled {
				id, ok := index[s]
				if !ok {
					s = strings.Clone(s) // the table must not pin the block
					t, err := ParseTerm(s)
					if err != nil {
						return terms, rows, atLine(err, line)
					}
					id = TermID(len(terms))
					terms = append(terms, t)
					index[s] = id
				}
				row[i] = id
			}
			rows = append(rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		return terms, rows, fmt.Errorf("triple: read: %w", err)
	}
	return terms, rows, nil
}

// scanLineBlock is a bufio.SplitFunc that returns every whole line in
// the buffer as one token, newlines included, and at EOF what is left.
func scanLineBlock(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

func atLine(err error, line int) error {
	if pe, ok := err.(*ParseError); ok {
		pe.Line = line
	}
	return err
}

// ReadAll parses a stream of triples, one per line. Blank lines and lines
// starting with '#' are skipped. On error the returned slice contains the
// triples parsed so far. Triples that spell a term alike share its
// strings.
func ReadAll(r io.Reader) ([]Triple, error) {
	terms, rows, err := readRows(r)
	if len(rows) == 0 {
		return nil, err
	}
	out := make([]Triple, len(rows))
	for i, row := range rows {
		out[i] = Triple{Subject: terms[row[0]], Predicate: terms[row[1]], Object: terms[row[2]]}
	}
	return out, err
}

// WriteAll writes triples one per line in the canonical notation.
func WriteAll(w io.Writer, ts []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range ts {
		if _, err := bw.WriteString(t.String()); err != nil {
			return fmt.Errorf("triple: write: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("triple: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("triple: write: %w", err)
	}
	return nil
}
