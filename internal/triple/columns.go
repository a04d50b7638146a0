package triple

import (
	"fmt"
	"math/bits"

	"semtree/internal/column"
)

// The store persists as its own tables, so this file is the one place
// that knows their byte layout: a term table column, a string table
// column, a row column and a run column.
//
// The row column codes each position of a triple — subject, predicate,
// object — by what that position holds. It opens with the row count n,
// then per position its coding, a byte: codedByDictionary, followed by
// a dictionary — the TermIDs the position uses, in the order the rows
// first use them, as a uvarint count and uvarints — or codedByTerm,
// followed by nothing. Each row is then three codes: a term's place in
// its position's dictionary, bits.Len(len(dictionary)) bits wide, or
// its TermID, bits.Len(nt) bits wide for a table of nt terms (so a row
// takes at least a bit per position, and a row count the bytes do not
// back is refused before anything is allocated). A position takes the
// coding under which it takes fewer bits (dictionaryPays): a position
// whose terms repeat, a dictionary; one whose terms rarely do — a
// subject per triple — TermIDs, which write no term twice.
// The codes are packed LSB-first in row order (column.BitWriter) into
// ⌈n·W/8⌉ bytes, W the three widths' sum, the last byte padded with
// zero bits. A store has one encoding: ReadStore refuses the coding a
// writer would not have chosen, dictionaries out of first-seen order or
// holding a term no row uses, codes past their dictionary or table, and
// a nonzero pad bit.
//
// The run column holds, per run in ID order, its length and its
// Prov.Doc and Prov.Section string ids as uvarints, the Prov.Seq of its
// first triple as a zigzag varint, and its step as a byte.

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
	writeRowCodes(w, v.spo[:n], len(v.terms))
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

// Row coding: each position of the row column is coded either through
// a dictionary or by the global TermID, whichever takes fewer bits.
const (
	codedByDictionary byte = iota
	codedByTerm
)

// uvarintLen is the length of v's uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// dictionaryPays reports whether a position of n rows that uses m
// distinct terms, whose uvarints take size bytes, takes fewer bits
// coded through its dictionary — the count, the entries, and a code of
// bits.Len(m) bits per row — than by TermID, bits.Len(nt) bits per row.
// The tie goes to the codes by TermID, which need no dictionary.
func dictionaryPays(n, m, size, nt int) bool {
	return 8*(uvarintLen(uint64(m))+size)+n*bits.Len(uint(m)) < n*bits.Len(uint(nt))
}

// writeRowCodes writes the row column's body: the row count, each
// position's coding — a dictionary or none — and the packed codes of
// rows, whose TermIDs index a table of nt terms.
func writeRowCodes(w *column.Writer, rows [][3]TermID, nt int) {
	w.Uvarint(uint64(len(rows)))
	code := make([]uint32, 3*nt) // code[j*nt+id]: 1 + id's place in dictionary j, 0 while j has not used id
	var dict []TermID
	var width [3]int
	var byTerm [3]bool
	for j := range width {
		dict = dict[:0]
		size := 0
		for _, spo := range rows {
			if c := &code[j*nt+int(spo[j])]; *c == 0 {
				dict = append(dict, spo[j])
				*c = uint32(len(dict))
				size += uvarintLen(uint64(spo[j]))
			}
		}
		if !dictionaryPays(len(rows), len(dict), size, nt) {
			w.Byte(codedByTerm)
			width[j], byTerm[j] = bits.Len(uint(nt)), true
			continue
		}
		w.Byte(codedByDictionary)
		w.Uvarint(uint64(len(dict)))
		for _, id := range dict {
			w.Uvarint(uint64(id))
		}
		width[j] = bits.Len(uint(len(dict)))
	}
	bw := column.BitWriter{A: &w.Appender}
	for _, spo := range rows {
		for j, id := range spo {
			c := uint64(id)
			if !byTerm[j] {
				c = uint64(code[j*nt+int(id)] - 1)
			}
			bw.Bits(c, width[j])
		}
	}
	bw.Flush()
}

// readRowCodes reads the row column's body writeRowCodes wrote for a
// table of nt terms.
func readRowCodes(r *column.Reader, nt int) ([][3]TermID, error) {
	n := r.Uvarint()
	var dicts [3][]TermID
	var width [3]int
	var byTerm [3]bool
	var size [3]int           // the bytes of the uvarints of each position's terms
	used := make([]uint8, nt) // bit j: position j's dictionary names the term, or a row uses it there
	bitsPerRow := 0
	for j := range dicts {
		switch coding := r.Byte(); {
		case r.Err() != nil:
			return nil, r.Err()
		case coding == codedByTerm:
			width[j], byTerm[j] = bits.Len(uint(nt)), true
		case coding != codedByDictionary:
			return nil, fmt.Errorf("triple: position %d coded as %d", j, coding)
		default:
			m := r.Count(1) // an entry takes a byte at least
			if width[j] = bits.Len(uint(m)); width[j] > 32 {
				return nil, fmt.Errorf("triple: position %d has a dictionary of %d terms, codes of %d bits", j, m, width[j])
			}
			dicts[j] = make([]TermID, m)
			for k := range dicts[j] {
				id := r.Uvarint()
				switch {
				case r.Err() != nil:
					return nil, r.Err()
				case id >= uint64(nt):
					return nil, fmt.Errorf("triple: position %d's dictionary names term %d of %d", j, id, nt)
				case used[id]&(1<<j) != 0:
					return nil, fmt.Errorf("triple: position %d's dictionary names term %d twice", j, id)
				}
				used[id] |= 1 << j
				dicts[j][k] = TermID(id)
				size[j] += uvarintLen(id)
			}
		}
		bitsPerRow += width[j]
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if left := uint64(r.Len()); n > 8*left || (n*uint64(bitsPerRow)+7)/8 != left {
		return nil, fmt.Errorf("triple: %d rows of %d bits in %d bytes", n, bitsPerRow, left)
	}
	var codes column.BitDecoder
	codes.Reset(r.Rest())
	rows := make([][3]TermID, n)
	var seen [3]int // the dictionary entries, or distinct terms, each position has used so far
	for i := range rows {
		for j, dict := range dicts {
			c := int(codes.Bits(width[j]))
			switch {
			case byTerm[j] && c >= nt:
				return nil, fmt.Errorf("triple: row %d codes position %d as term %d of %d", i, j, c, nt)
			case byTerm[j]:
				if used[c]&(1<<j) == 0 {
					used[c] |= 1 << j
					seen[j]++
					size[j] += uvarintLen(uint64(c))
				}
				rows[i][j] = TermID(c)
				continue
			case c >= len(dict):
				return nil, fmt.Errorf("triple: row %d codes position %d as %d of a %d-term dictionary", i, j, c, len(dict))
			case c > seen[j]:
				return nil, fmt.Errorf("triple: row %d uses entry %d of position %d's dictionary before entry %d", i, c, j, seen[j])
			case c == seen[j]:
				seen[j]++
			}
			rows[i][j] = dict[c]
		}
	}
	if err := codes.End(); err != nil {
		return nil, fmt.Errorf("triple: row codes: %w", err)
	}
	for j, dict := range dicts {
		switch {
		case !byTerm[j] && seen[j] != len(dict):
			return nil, fmt.Errorf("triple: no row uses entry %d of position %d's dictionary", seen[j], j)
		case byTerm[j] && dictionaryPays(len(rows), seen[j], size[j], nt):
			return nil, fmt.Errorf("triple: position %d coded by TermID, where a dictionary of its %d terms takes fewer bits", j, seen[j])
		case !byTerm[j] && !dictionaryPays(len(rows), seen[j], size[j], nt):
			return nil, fmt.Errorf("triple: position %d coded through a dictionary of %d terms, which takes no fewer bits than TermIDs", j, seen[j])
		}
	}
	return rows, nil
}

// ReadStore reads the four columns WriteColumns wrote into a new store.
// Repeated table entries, ids out of their table's range, rows not
// coded as WriteColumns codes them (see the file comment), an empty
// run, a step other than 0 and 1, a one-triple run that steps, and
// runs that do not cover the rows exactly are errors, as are the
// reader's own.
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
	rows, err := readRowCodes(r, len(s.terms))
	if err != nil {
		return nil, err
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	s.spo = rows
	n := len(rows)

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
		case length == 1 && step != 0:
			return nil, fmt.Errorf("triple: run %d of one triple steps by %d", k, step) // written as step 0
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
