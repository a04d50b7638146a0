package triple

import (
	"fmt"

	"semtree/internal/column"
)

// The store persists as its own tables, so this file is the one place
// that knows their byte layout: a term table column, a string table
// column, a row column holding, per triple, the subject, predicate and
// object TermIDs as uvarints, and a run column holding, per run in ID
// order, its length and its Prov.Doc and Prov.Section string ids as
// uvarints, the Prov.Seq of its first triple as a zigzag varint, and
// its step as a byte.

// WriteTerm appends t to w's open column: its kind, prefix, value and
// literal type.
func WriteTerm(w *column.Writer, t Term) {
	w.Byte(byte(t.Kind))
	w.Text(t.Prefix)
	w.Text(t.Value)
	w.Byte(byte(t.LitType))
}

// termSize is the fewest bytes a term takes: two bytes and two empty
// strings.
const termSize = 4

// ReadTerm reads a term WriteTerm wrote.
func ReadTerm(r *column.Reader) Term {
	var t Term
	t.Kind = TermKind(r.Byte())
	t.Prefix = r.Text()
	t.Value = r.Text()
	t.LitType = LiteralType(r.Byte())
	return t
}

// WriteColumns writes the store's tables and its first n triples — n
// at most Len — as four columns, reading them in place. The run that
// holds triple n-1 is cut there.
func (s *Store) WriteColumns(w *column.Writer, n int) {
	v := s.view()
	w.Uvarint(uint64(len(v.terms)))
	for _, t := range v.terms {
		WriteTerm(w, t)
	}
	w.End()
	w.Uvarint(uint64(len(v.strs)))
	for _, str := range v.strs {
		w.Text(str)
	}
	w.End()
	w.Uvarint(uint64(n))
	for _, spo := range v.spo[:n] {
		for _, id := range spo {
			w.Uvarint(uint64(id))
		}
	}
	w.End()
	if n == 0 {
		w.Uvarint(0)
	} else {
		w.Uvarint(uint64(v.runOf(n-1) + 1))
	}
	for r, end := range v.spans {
		if r.first >= n {
			break
		}
		end = min(end, n)
		if end-r.first == 1 {
			r.step = 0 // a run cut to one triple writes as a fresh one would
		}
		w.Uvarint(uint64(end - r.first))
		w.Uvarint(uint64(r.doc))
		w.Uvarint(uint64(r.section))
		w.Varint(int64(r.seq))
		w.Byte(byte(r.step))
	}
	w.End()
}

// ReadStore reads the four columns WriteColumns wrote into a new store.
// Repeated table entries, ids out of their table's range, an empty
// run, a step other than 0 and 1, and runs that do not cover the rows
// exactly are errors, as are the reader's own.
func ReadStore(r *column.Reader) (*Store, error) {
	s := NewStore()
	if err := r.Next(); err != nil {
		return nil, err
	}
	s.terms = make([]Term, r.Count(termSize))
	for i := range s.terms {
		t := ReadTerm(r)
		if _, dup := s.termID[t]; dup && r.Err() == nil {
			return nil, fmt.Errorf("triple: term %d repeats an earlier one", i)
		}
		s.terms[i], s.termID[t] = t, TermID(i)
	}
	if err := r.End(); err != nil {
		return nil, err
	}

	if err := r.Next(); err != nil {
		return nil, err
	}
	s.strs = make([]string, r.Count(1))
	for i := range s.strs {
		str := r.Text()
		if _, dup := s.strID[str]; dup && r.Err() == nil {
			return nil, fmt.Errorf("triple: string %d repeats an earlier one", i)
		}
		s.strs[i], s.strID[str] = str, uint32(i)
	}
	if err := r.End(); err != nil {
		return nil, err
	}

	if err := r.Next(); err != nil {
		return nil, err
	}
	n := r.Count(3) // three one-byte uvarints at least
	s.spo = make([][3]TermID, n)
	nt := uint64(len(s.terms))
	for i := range n {
		for j := range s.spo[i] {
			id := r.Uvarint()
			if id >= nt && r.Err() == nil {
				return nil, fmt.Errorf("triple: row %d names term %d of %d", i, id, nt)
			}
			s.spo[i][j] = TermID(id)
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}

	if err := r.Next(); err != nil {
		return nil, err
	}
	runs := make([]run, r.Count(5)) // four one-byte varints and a byte at least
	ns := uint64(len(s.strs))
	first := 0
	for k := range runs {
		length, doc, section := r.Uvarint(), r.Uvarint(), r.Uvarint()
		seq, step := r.Varint(), r.Byte()
		switch {
		case r.Err() != nil:
		case length == 0 || length > uint64(n-first):
			return nil, fmt.Errorf("triple: run %d of %d triples from triple %d of %d", k, length, first, n)
		case doc >= ns || section >= ns:
			return nil, fmt.Errorf("triple: run %d names strings %d and %d of %d", k, doc, section, ns)
		case step > 1:
			return nil, fmt.Errorf("triple: run %d steps by %d", k, step)
		}
		runs[k] = run{first: first, seq: int(seq), doc: uint32(doc), section: uint32(section), step: int(step)}
		first += int(length)
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	if first != n {
		return nil, fmt.Errorf("triple: runs cover %d of %d triples", first, n)
	}
	if k := len(runs); k > 0 {
		s.runs, s.open = runs[:k-1], runs[k-1]
	}
	return s, nil
}
