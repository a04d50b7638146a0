package semtree

import (
	"errors"
	"fmt"
	"io"

	"semtree/internal/column"
	"semtree/internal/core"
	"semtree/internal/fastmap"
	"semtree/internal/semdist"
	"semtree/internal/triple"
)

// snapshotVersion is the on-disk format written by Save, and the only
// one Load accepts. Version 9 is a column stream (internal/column):
// the header carries the embedding dimension once, and the columns
// hold the index as memory already does — the store's tables, rows and
// provenance runs, the pivots with their squared pivot distances, and
// per partition the nodes, a cross-partition link among them, and point
// IDs. Each column is coded by what it holds: a row is three
// fixed-width codes, per position into a dictionary or of the TermID,
// whichever takes fewer bits (internal/triple/columns.go); a routing
// child is its offset from its parent, a split value at the top of its
// left child's box is not written, and a leaf's IDs are Rice-coded
// gaps (core.WriteSnapshot). No coordinate and no box is written: a
// point's coordinates are a function of its triple and the pivots, and
// Load projects every stored triple again with the arithmetic that
// placed it, then the restore fits every box and, from them, sets the
// split values left out. Version 8 wrote every split value raw, every
// ID gap as a varint and every row position through a dictionary,
// version 7 every row, routing child and ID as plain uvarints, version
// 6 a column of remote-box refs per partition, version 5 each triple's
// provenance in its row, version 4 each partition's coordinate block
// raw, and versions 1–3 were gob streams; none has a writer and all are
// rejected as corrupt.
const snapshotVersion = 9

// ErrSnapshotCorrupt reports snapshot bytes that cannot be loaded:
// truncated or garbled encodings, unknown versions, embedding
// parameters or pivots no index could have been built with, and
// structural violations inside the persisted tree
// (core.ErrSnapshotCorrupt, re-exported). Test with errors.Is; corrupt
// input always returns this error — it never panics.
var ErrSnapshotCorrupt = core.ErrSnapshotCorrupt

// indexSnapshot is a persisted index: the metric parameters the
// embedding was built under (Options.Dims is the header's dimension,
// which the pivots and the tree share), the FastMap pivots, the first
// Rows triples of Store with their provenance, of which the first Built
// were placed by Build's FastMap run and the rest embedded one by one
// (Insert, BulkAdd), and the distributed tree's partition snapshot —
// the exact tree layout, its buckets naming their points by triple ID.
// The coordinates are not persisted: Load projects each triple again,
// under the pivots and with the arithmetic that placed it
// (fastmap.Mapper.Project), so a restart answers bit-identically
// without re-ingesting.
type indexSnapshot struct {
	Options persistedOptions
	Mapper  fastmap.Snapshot[triple.Triple]
	Store   *triple.Store
	Rows    int
	Built   int
	Tree    *core.TreeSnapshot
}

// strayID returns a point ID the tree serves — one in a partition's ID
// column — that has no entry in a table of n entries (IDs are
// positional), if there is one.
func strayID(ts *core.TreeSnapshot, n int) (uint64, bool) {
	for pi := range ts.Parts {
		for _, id := range ts.Parts[pi].IDs {
			if id >= uint64(n) {
				return id, true
			}
		}
	}
	return 0, false
}

// Save writes a snapshot of the index to w: its triples, the embedding
// parameters and pivots, and the tree's layout, but no coordinate (Load
// projects them again). The distributed tree must
// be quiescent (no concurrent Insert, BulkAdd or Rebalance);
// concurrent queries are fine. Insert and BulkAdd extend the store in
// one locked append but the tree outside it, so a Save that races an
// ingest can capture a tree that is ahead of or behind the store walk;
// it then reports a clean mutation error instead of writing a stream
// Load would reject. The same error covers triples added to the store
// behind the index's back.
func Save(w io.Writer, ix *Index) error {
	// The store is append-only and a batch enters it under one lock, so
	// the count read here names an immutable prefix holding every batch
	// whole; its rows are written from the store's own tables, blocking
	// no writer.
	n := ix.store.Len()
	treeSnap, err := ix.tree.Snapshot()
	if err != nil {
		return fmt.Errorf("semtree: save: %w", err)
	}
	// Equal sizes plus every ID below the entry count (IDs are distinct)
	// prove the tree serves exactly the captured entries.
	if treeSnap.Size != int64(n) {
		return fmt.Errorf("semtree: tree snapshot holds %d points but %d triples are stored "+
			"(index mutated during Save, or triples added to the store outside the index?)", treeSnap.Size, n)
	}
	if id, ok := strayID(treeSnap, n); ok {
		return fmt.Errorf("semtree: tree snapshot holds triple ID %d but only %d triples were captured "+
			"(index mutated during Save?)", id, n)
	}
	snap := indexSnapshot{
		Options: ix.opts,
		Mapper:  fastmap.ConvertSnapshot(ix.mapper.Snapshot(), semdist.Triple.Unresolved),
		Store:   ix.store,
		Rows:    n,
		Built:   ix.built,
		Tree:    treeSnap,
	}
	if err := writeSnapshot(w, &snap); err != nil {
		return fmt.Errorf("semtree: save: %w", err)
	}
	return nil
}

// writeSnapshot writes snap as a version-9 stream: the header, then the
// options and pivot columns, the pivot-coordinate column (both pivots'
// coordinates per axis, the squared pivot distances, then Built), the
// store's four columns and the tree's, which hold no coordinate.
func writeSnapshot(w io.Writer, snap *indexSnapshot) error {
	m := &snap.Mapper
	cw := column.NewWriter(w)
	cw.Header(snapshotVersion, uint32(snap.Options.Dims))

	o := snap.Options
	cw.Float(o.Weights.Alpha)
	cw.Float(o.Weights.Beta)
	cw.Float(o.Weights.Gamma)
	cw.Text(o.Measure)
	var numeric byte
	if o.NumericLiterals {
		numeric = 1
	}
	cw.Byte(numeric)
	cw.End()

	for ax := range m.PivotA {
		for _, t := range [2]triple.Triple{m.PivotA[ax], m.PivotB[ax]} {
			triple.WriteTerm(cw, t.Subject)
			triple.WriteTerm(cw, t.Predicate)
			triple.WriteTerm(cw, t.Object)
		}
	}
	cw.End()
	for _, cs := range [2][][]float64{m.CoordsA, m.CoordsB} {
		for _, c := range cs {
			for _, v := range c {
				cw.Float(v)
			}
		}
	}
	for _, v := range m.DAB2 {
		cw.Float(v)
	}
	cw.Uvarint(uint64(snap.Built))
	cw.End()

	snap.Store.WriteColumns(cw, snap.Rows)
	if err := core.WriteSnapshot(cw, snap.Tree); err != nil {
		return err
	}
	return cw.Flush()
}

// readSnapshot reads a stream writeSnapshot wrote. Every error it
// returns is caused by the bytes.
func readSnapshot(r io.Reader) (*indexSnapshot, error) {
	cr := column.NewReader(r)
	version, udim, err := cr.Header()
	if err != nil {
		return nil, err
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("snapshot version %d, want %d", version, snapshotVersion)
	}
	if udim < 1 || udim > core.MaxSnapshotDim {
		return nil, fmt.Errorf("dimension %d out of range", udim)
	}
	dim := int(udim)
	snap := &indexSnapshot{Options: persistedOptions{Dims: dim}}

	if err := cr.Next(); err != nil {
		return nil, err
	}
	o := &snap.Options
	o.Weights.Alpha, o.Weights.Beta, o.Weights.Gamma = cr.Float(), cr.Float(), cr.Float()
	o.Measure = cr.Text()
	switch numeric := cr.Byte(); numeric {
	case 0, 1:
		o.NumericLiterals = numeric == 1
	default:
		return nil, fmt.Errorf("numeric-literals flag %d", numeric)
	}
	if err := cr.End(); err != nil {
		return nil, err
	}

	m := &snap.Mapper
	m.Dims = dim
	if err := cr.Next(); err != nil {
		return nil, err
	}
	m.PivotA, m.PivotB = make([]triple.Triple, dim), make([]triple.Triple, dim)
	for ax := range dim {
		for _, t := range [2]*triple.Triple{&m.PivotA[ax], &m.PivotB[ax]} {
			t.Subject = triple.ReadTerm(cr)
			t.Predicate = triple.ReadTerm(cr)
			t.Object = triple.ReadTerm(cr)
		}
	}
	if err := cr.End(); err != nil {
		return nil, err
	}
	if err := cr.Next(); err != nil {
		return nil, err
	}
	if want := 8 * (2*dim + 1) * dim; cr.Len() <= want {
		return nil, fmt.Errorf("pivot coordinate column of %d bytes, want %d and a row count", cr.Len(), want)
	}
	block := make([]float64, (2*dim+1)*dim)
	cr.Floats(block)
	built := cr.Uvarint()
	if err := cr.End(); err != nil {
		return nil, err
	}
	m.CoordsA, m.CoordsB = make([][]float64, dim), make([][]float64, dim)
	for ax := range dim {
		m.CoordsA[ax] = block[ax*dim : (ax+1)*dim : (ax+1)*dim]
		m.CoordsB[ax] = block[(dim+ax)*dim : (dim+ax+1)*dim : (dim+ax+1)*dim]
	}
	m.DAB2 = block[2*dim*dim:]

	if snap.Store, err = triple.ReadStore(cr); err != nil {
		return nil, err
	}
	snap.Rows = snap.Store.Len()
	if built > uint64(snap.Rows) {
		return nil, fmt.Errorf("%d triples placed by the build, %d persisted", built, snap.Rows)
	}
	snap.Built = int(built)
	if snap.Tree, err = core.ReadSnapshot(cr, dim); err != nil {
		return nil, err
	}
	return snap, nil
}

// Load reconstructs an index from a snapshot written by Save. The
// embedding parameters are taken from the snapshot; the vocabularies
// (opts.Registry) and the tree-layout options (bucket size, partitions,
// fabric) come from opts — their embedding fields (Weights, Measure,
// NumericLiterals, Dims, Seed) are ignored.
//
// Load projects every stored triple again under the persisted pivots,
// partition by partition into the arena's own coordinate block, with
// the arithmetic that placed it — Build's for the triples Build
// embedded, Insert's for the rest — so each coordinate comes back bit
// for bit. The terms are resolved against opts.Registry, as the queries
// of the loaded index are: Load under the registry the index was built
// with (nil, if it was built with nil) for the points and answers of
// the saved index. The distributed tree's exact partition layout, its
// links included, is then restored after structural validation, every
// box fitted to the points below it, so the loaded index answers every query
// byte-identically to the saved one; opts.MaxPartitions is raised to
// the persisted partition count when lower. Corrupt input — truncation,
// garbage, a checksum mismatch, any version other than
// snapshotVersion, embedding parameters or pivots the metric or FastMap
// reject, or a tree payload violating the structural invariants —
// returns ErrSnapshotCorrupt.
func Load(r io.Reader, opts Options) (*Index, error) {
	snap, err := readSnapshot(r)
	if errors.Is(err, ErrSnapshotCorrupt) { // core.ReadSnapshot's refusal: corrupt already
		return nil, fmt.Errorf("semtree: load: %w", err)
	}
	if err != nil {
		return nil, fmt.Errorf("semtree: load: %w: %v", ErrSnapshotCorrupt, err)
	}
	metric, err := newMetric(opts.Registry, snap.Options)
	if err != nil {
		return nil, fmt.Errorf("semtree: load: %w: %v", ErrSnapshotCorrupt, err)
	}
	mapper, err := fastmap.FromSnapshot(fastmap.ConvertSnapshot(snap.Mapper, metric.Resolve), metric.ResolvedDistance)
	if err != nil {
		return nil, fmt.Errorf("semtree: load: %w: %v", ErrSnapshotCorrupt, err)
	}

	// The cross-checks against the store come before the structural
	// validation inside RestoreTree, so an inconsistent stream fails
	// fast either way.
	if snap.Tree.Size != int64(snap.Rows) {
		return nil, fmt.Errorf("semtree: load: %w: tree snapshot holds %d points but %d triples persisted",
			ErrSnapshotCorrupt, snap.Tree.Size, snap.Rows)
	}
	// Every point the tree serves must resolve in the store — reloaded
	// IDs are positional — or queries over the restored tree would
	// surface phantom IDs.
	if id, ok := strayID(snap.Tree, snap.Rows); ok {
		return nil, fmt.Errorf("semtree: load: %w: tree references triple ID %d but only %d triples persisted",
			ErrSnapshotCorrupt, id, snap.Rows)
	}
	project(snap, metric, mapper)
	tree, err := core.RestoreTree(opts.treeConfig(snap.Options.Dims), snap.Tree)
	if err != nil {
		return nil, fmt.Errorf("semtree: load: %w", err)
	}
	return &Index{
		store: snap.Store, metric: metric, mapper: mapper, tree: tree,
		dims: snap.Options.Dims, opts: snap.Options, built: snap.Built,
	}, nil
}

// project gives every partition of snap's tree its coordinate block:
// the triples its ID column names, in slot order, projected under
// mapper's pivots straight into the block — the first snap.Built
// triples of the store as Build placed them, later ones as Insert and
// BulkAdd embedded them. The store's terms are resolved once, and each
// partition's rows are gathered into a corpus of their own. Every ID
// must index the store (strayID).
func project(snap *indexSnapshot, metric *semdist.Metric, mapper *fastmap.Mapper[semdist.Triple]) {
	terms, rows := snap.Store.Encoded()
	all := semdist.NewCorpus(metric, terms, nil)
	dim := snap.Tree.Dim
	for pi := range snap.Tree.Parts {
		ps := &snap.Tree.Parts[pi]
		ids := make([][3]triple.TermID, len(ps.IDs))
		var mapped []bool
		for slot, id := range ps.IDs {
			ids[slot] = rows[id]
			if id >= uint64(snap.Built) {
				if mapped == nil {
					mapped = make([]bool, len(ps.IDs))
				}
				mapped[slot] = true
			}
		}
		ps.Coords = make([]float64, dim*len(ps.IDs))
		mapper.Project(ps.Coords, all.Over(ids).RowFrom, mapped)
	}
}
