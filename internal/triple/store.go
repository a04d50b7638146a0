package triple

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
)

// ID identifies a triple inside a Store. IDs are dense, starting at 0,
// and double as the payload identifiers carried by index points.
type ID uint64

// TermID identifies a distinct term in a Store's dictionary. IDs are
// dense and assigned in first-seen order; two stored terms share an ID
// exactly when they are == as structs (so a concept written with an
// empty prefix and one written "std" are two entries).
type TermID uint32

// Provenance records where a triple came from: the document, the section
// (requirement) inside it, and the sequence number of the triple within
// the section ("the order of the triples reflects the temporal sequence
// of the requirement elements" — §III-A, footnote 1).
type Provenance struct {
	Doc     string // document identifier
	Section string // section / requirement identifier
	Seq     int    // position of the triple within the section
}

// Entry is a stored triple together with its provenance.
type Entry struct {
	Triple Triple
	Prov   Provenance
}

// Store is an append-only collection of triples with provenance. It is
// safe for concurrent use: writes take an exclusive lock, reads a shared
// one. IDs are never reused.
//
// The store is dictionary-encoded. The paper's triples draw on small
// vocabularies — subject an Actor, predicate a function, object a
// Parameter (§III-A) — so each distinct term is kept once in a term
// table and a stored triple is its three term ids: 12 bytes against the
// 184 of an Entry. Provenance is kept by run: a section's triples
// arrive together, in order (§III-A, footnote 1), so consecutive IDs
// under one Doc and Section whose Seq counts up by one, or repeats,
// share one 32-byte run record, with each distinct Doc and Section
// kept once in a string table. A distinct term costs 48 bytes of table
// plus its map entry and growth slack, 135 to 185 in all, and a triple
// that opens a run of its own pays the record's 32 (TestStoreFootprint
// measures both), so the encoding is the smaller one while a corpus
// averages fewer than about one distinct term per triple — every term
// used three times or more; a corpus in which no term ever repeats
// takes about three times what a plain []Entry would. Entries are
// materialised on the way out and share their strings with the tables,
// so reading allocates nothing.
type Store struct {
	mu sync.RWMutex
	columns
	termID map[Term]TermID
	strID  map[string]uint32
}

// columns are the store's tables. The slices only ever grow by append
// and the one run that is ever extended, the open one, is held by
// value, so a copy of columns taken under the lock is an immutable view
// of everything stored up to then and can be read with no lock held.
type columns struct {
	terms []Term      // term dictionary, first-seen order
	strs  []string    // Provenance.Doc and Section dictionary
	spo   [][3]TermID // per triple: subject, predicate, object in terms
	runs  []run       // provenance of the triples before open.first
	open  run         // provenance of the rest; unset while spo is empty
}

// run is the provenance of consecutive triple IDs: one Doc and Section,
// and a Seq that starts at seq and steps by step, 0 or 1, from ID to
// ID. A run ends where the next one starts; the open run ends at the
// last triple.
type run struct {
	first        int    // ID of the run's first triple
	seq          int    // Prov.Seq of that triple
	doc, section uint32 // Prov.Doc and Prov.Section in strs
	step         int
}

func (c *columns) triple(i int) Triple {
	t := c.spo[i]
	return Triple{Subject: c.terms[t[0]], Predicate: c.terms[t[1]], Object: c.terms[t[2]]}
}

// runOf returns the index in runs of the run holding triple i, which
// is stored, or len(runs) for the open run.
func (c *columns) runOf(i int) int {
	if i >= c.open.first {
		return len(c.runs)
	}
	k, found := slices.BinarySearchFunc(c.runs, i, func(r run, i int) int { return cmp.Compare(r.first, i) })
	if !found {
		k--
	}
	return k
}

// runAt returns the run holding triple i, which is stored.
func (c *columns) runAt(i int) run {
	if k := c.runOf(i); k < len(c.runs) {
		return c.runs[k]
	}
	return c.open
}

// spans yields every run in ID order with the ID just past its last
// triple.
func (c *columns) spans(yield func(r run, end int) bool) {
	if len(c.spo) == 0 {
		return
	}
	for k, r := range c.runs {
		end := c.open.first
		if k+1 < len(c.runs) {
			end = c.runs[k+1].first
		}
		if !yield(r, end) {
			return
		}
	}
	yield(c.open, len(c.spo))
}

// entry returns triple i, which run r holds.
func (c *columns) entry(r run, i int) Entry {
	return Entry{
		Triple: c.triple(i),
		Prov:   Provenance{Doc: c.strs[r.doc], Section: c.strs[r.section], Seq: r.seq + r.step*(i-r.first)},
	}
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{termID: make(map[Term]TermID), strID: make(map[string]uint32)}
}

// view returns the tables as they stand.
func (s *Store) view() columns {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.columns
}

// grow makes room for n more triples. Callers hold the write lock.
func (s *Store) grow(n int) {
	s.spo = slices.Grow(s.spo, n)
}

func (s *Store) internTerm(t Term) TermID {
	id, ok := s.termID[t]
	if !ok {
		id = TermID(len(s.terms))
		s.terms = append(s.terms, t)
		s.termID[t] = id
	}
	return id
}

func (s *Store) internString(v string) uint32 {
	id, ok := s.strID[v]
	if !ok {
		id = uint32(len(s.strs))
		s.strs = append(s.strs, v)
		s.strID[v] = id
	}
	return id
}

// put appends one triple. Callers hold the write lock.
func (s *Store) put(t Triple, doc, section uint32, seq int) {
	s.putRow([3]TermID{s.internTerm(t.Subject), s.internTerm(t.Predicate), s.internTerm(t.Object)}, doc, section, seq)
}

// putRow appends one encoded triple: it extends the open run when the
// triple continues it, and opens a run otherwise. A run of one triple
// continues under either step. Callers hold the write lock.
func (s *Store) putRow(spo [3]TermID, doc, section uint32, seq int) {
	i := len(s.spo)
	s.spo = append(s.spo, spo)
	if o := &s.open; i > 0 && o.doc == doc && o.section == section {
		// Seq arithmetic wraps, as p.Seq+i does in AddAll.
		switch d, n := seq-o.seq, i-o.first; {
		case d == o.step*n:
			return
		case n == 1 && (d == 0 || d == 1):
			o.step = d
			return
		}
	}
	if i > 0 {
		s.runs = append(s.runs, s.open)
	}
	s.open = run{first: i, seq: seq, doc: doc, section: section}
}

// Add appends a triple and returns its ID.
func (s *Store) Add(t Triple, p Provenance) ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(t, s.internString(p.Doc), s.internString(p.Section), p.Seq)
	return ID(len(s.spo) - 1)
}

// AddAll appends a batch of triples sharing one provenance, assigning
// sequence numbers in order, and returns the ID of the first one.
func (s *Store) AddAll(ts []Triple, p Provenance) ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := ID(len(s.spo))
	s.grow(len(ts))
	doc, section := s.internString(p.Doc), s.internString(p.Section)
	for i, t := range ts {
		s.put(t, doc, section, p.Seq+i)
	}
	return first
}

// AddFrom reads triples in the text notation from r, one per line as
// ReadAll does, and appends them as AddAll would append ReadAll's
// result: one provenance, sequence numbers from p.Seq in line order. It
// returns the ID of the first one and how many there were. No []Triple
// is built: the stream is parsed into rows over its distinct terms, and
// only those terms are interned. Nothing is stored until the whole
// stream has parsed, so on error the store is unchanged.
func (s *Store) AddFrom(r io.Reader, p Provenance) (first ID, n int, err error) {
	terms, rows, err := readRows(r)
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first = ID(len(s.spo))
	s.grow(len(rows))
	doc, section := s.internString(p.Doc), s.internString(p.Section)
	// The table is in first-seen order, so interning it in order assigns
	// the TermIDs AddAll would.
	ids := make([]TermID, len(terms))
	for i, t := range terms {
		ids[i] = s.internTerm(t)
	}
	for i, row := range rows {
		s.putRow([3]TermID{ids[row[0]], ids[row[1]], ids[row[2]]}, doc, section, p.Seq+i)
	}
	return first, len(rows), nil
}

// AddEntries appends a batch of entries, each under its own provenance,
// and returns the ID of the first one. The batch becomes visible to
// readers all at once: Len never reports part of it.
func (s *Store) AddEntries(es []Entry) ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := ID(len(s.spo))
	s.grow(len(es))
	for _, e := range es {
		s.put(e.Triple, s.internString(e.Prov.Doc), s.internString(e.Prov.Section), e.Prov.Seq)
	}
	return first
}

// Get returns the entry for id. The second result is false when the ID
// is out of range.
func (s *Store) Get(id ID) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if uint64(id) >= uint64(len(s.spo)) {
		return Entry{}, false
	}
	return s.entry(s.runAt(int(id)), int(id)), true
}

// MustGet returns the triple for id and panics if the ID is unknown.
// It is intended for internal plumbing where IDs are known valid.
func (s *Store) MustGet(id ID) Triple {
	e, ok := s.Get(id)
	if !ok {
		panic(fmt.Sprintf("triple: unknown ID %d", id))
	}
	return e.Triple
}

// Len returns the number of stored triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.spo)
}

// Each calls fn for every entry stored when Each was called, in ID
// order, until fn returns false. No lock is held while fn runs: triples
// added meanwhile are not visited.
func (s *Store) Each(fn func(ID, Entry) bool) {
	v := s.view()
	for r, end := range v.spans {
		for i := r.first; i < end; i++ {
			if !fn(ID(i), v.entry(r, i)) {
				return
			}
		}
	}
}

// Triples returns a copy of all stored triples in ID order.
func (s *Store) Triples() []Triple {
	v := s.view()
	out := make([]Triple, len(v.spo))
	for i := range out {
		out[i] = v.triple(i)
	}
	return out
}

// ByDoc returns the IDs of all triples whose provenance names doc,
// in ID order.
func (s *Store) ByDoc(doc string) []ID {
	s.mu.RLock()
	want, ok := s.strID[doc]
	v := s.columns
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	var out []ID
	for r, end := range v.spans {
		if r.doc == want {
			for i := r.first; i < end; i++ {
				out = append(out, ID(i))
			}
		}
	}
	return out
}

// Encoded returns the dictionary encoding of everything stored when it
// was called: the term table and, per triple in ID order, the TermIDs
// of its subject, predicate and object. Both are views of the store's
// own append-only tables, capped at their current length — no copy is
// made, later writes never show through them, and they stay valid with
// no lock held. They must be treated as read-only.
func (s *Store) Encoded() (terms []Term, triples [][3]TermID) {
	v := s.view()
	return slices.Clip(v.terms), slices.Clip(v.spo)
}
