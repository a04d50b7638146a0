package triple

import (
	"fmt"

	"semtree/internal/column"
)

// The store persists as its own tables, so this file is the one place
// that knows their byte layout: a term table column, a string table
// column, and a row column holding, per triple, the subject, predicate
// and object TermIDs, the Prov.Doc and Prov.Section string ids — all
// uvarints — and Prov.Seq as a zigzag varint.

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
// at most Len — as three columns, reading them in place.
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
	for i := range n {
		for _, id := range v.spo[i] {
			w.Uvarint(uint64(id))
		}
		w.Uvarint(uint64(v.src[i][0]))
		w.Uvarint(uint64(v.src[i][1]))
		w.Varint(int64(v.seq[i]))
	}
	w.End()
}

// ReadStore reads the three columns WriteColumns wrote into a new
// store. Repeated table entries and ids out of their table's range are
// errors, as are the reader's own.
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
	n := r.Count(6) // five one-byte uvarints and a one-byte varint at least
	s.spo, s.src, s.seq = make([][3]TermID, n), make([][2]uint32, n), make([]int, n)
	nt, ns := uint64(len(s.terms)), uint64(len(s.strs))
	for i := range n {
		for j := range s.spo[i] {
			id := r.Uvarint()
			if id >= nt && r.Err() == nil {
				return nil, fmt.Errorf("triple: row %d names term %d of %d", i, id, nt)
			}
			s.spo[i][j] = TermID(id)
		}
		for j := range s.src[i] {
			id := r.Uvarint()
			if id >= ns && r.Err() == nil {
				return nil, fmt.Errorf("triple: row %d names string %d of %d", i, id, ns)
			}
			s.src[i][j] = uint32(id)
		}
		s.seq[i] = int(r.Varint())
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return s, nil
}
