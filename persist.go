package semtree

import (
	"encoding/gob"
	"fmt"
	"io"

	"semtree/internal/core"
	"semtree/internal/fastmap"
	"semtree/internal/semdist"
	"semtree/internal/triple"
)

// snapshotVersion is the on-disk format written by Save, and the only
// one Load accepts. Version 2 introduced the distributed tree's
// partition snapshot; version 3 drops the separate embedding table
// (every coordinate already lives in the tree payload). Streams of
// either older version — neither has a writer — are rejected as corrupt.
const snapshotVersion = 3

// ErrSnapshotCorrupt reports snapshot bytes that cannot be loaded:
// truncated or garbled encodings, unknown versions, and structural
// violations inside the persisted tree (core.ErrSnapshotCorrupt,
// re-exported). Test with errors.Is; corrupt input always returns this
// error — it never panics.
var ErrSnapshotCorrupt = core.ErrSnapshotCorrupt

// indexSnapshot is the gob payload of a persisted index: the triples
// with provenance, the FastMap pivots, the metric parameters the
// embedding was built under, and the distributed tree's partition
// snapshot (core.TreeSnapshot) — the exact tree layout and, in its
// buckets, the exact coordinates of every stored triple, so a restart
// answers bit-identically without re-embedding or re-ingesting.
type indexSnapshot struct {
	Version int
	Options persistedOptions
	Entries []triple.Entry
	Mapper  fastmap.Snapshot[triple.Triple]
	Tree    *core.TreeSnapshot
}

// strayID returns a point ID the tree serves that has no entry in a
// table of n entries (IDs are positional), if there is one.
func strayID(ts *core.TreeSnapshot, n int) (uint64, bool) {
	for pi := range ts.Parts {
		for ni := range ts.Parts[pi].Nodes {
			for _, pt := range ts.Parts[pi].Nodes[ni].Bucket {
				if pt.ID >= uint64(n) {
					return pt.ID, true
				}
			}
		}
	}
	return 0, false
}

// Save writes a snapshot of the index to w. The distributed tree must
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
	// whole; copying it out blocks no writer.
	n := ix.store.Len()
	entries := make([]triple.Entry, 0, n)
	ix.store.Each(func(id triple.ID, e triple.Entry) bool {
		if len(entries) == n {
			return false
		}
		entries = append(entries, e)
		return true
	})
	treeSnap, err := ix.tree.Snapshot()
	if err != nil {
		return fmt.Errorf("semtree: save: %w", err)
	}
	// Equal sizes plus every ID below the entry count (IDs are distinct)
	// prove the tree serves exactly the captured entries.
	if treeSnap.Size != int64(len(entries)) {
		return fmt.Errorf("semtree: tree snapshot holds %d points but %d triples are stored "+
			"(index mutated during Save, or triples added to the store outside the index?)", treeSnap.Size, len(entries))
	}
	if id, ok := strayID(treeSnap, len(entries)); ok {
		return fmt.Errorf("semtree: tree snapshot holds triple ID %d but only %d triples were captured "+
			"(index mutated during Save?)", id, len(entries))
	}
	snap := indexSnapshot{
		Version: snapshotVersion,
		Options: ix.opts,
		Entries: entries,
		Mapper:  fastmap.ConvertSnapshot(ix.mapper.Snapshot(), semdist.Triple.Unresolved),
		Tree:    treeSnap,
	}
	if err := encodeSnapshot(w, &snap); err != nil {
		return fmt.Errorf("semtree: save: %w", err)
	}
	return nil
}

// encodeSnapshot and decodeSnapshot isolate the gob round trip for
// Save/Load and the format tests.
func encodeSnapshot(w io.Writer, snap *indexSnapshot) error {
	return gob.NewEncoder(w).Encode(snap)
}

func decodeSnapshot(r io.Reader, snap *indexSnapshot) error {
	return gob.NewDecoder(r).Decode(snap)
}

// Load reconstructs an index from a snapshot written by Save. The
// embedding parameters are taken from the snapshot; tree-layout options
// (bucket size, partitions, fabric) come from opts — their embedding
// fields (Weights, Measure, NumericLiterals, Dims, Seed) are ignored.
//
// The distributed tree's exact partition layout (boxes and remote
// caches included) is restored after structural validation, so the
// loaded index answers every query byte-identically to the saved one;
// opts.MaxPartitions is raised to the persisted partition count when
// lower. Corrupt input — truncation, garbage, any version other than
// snapshotVersion, or a tree payload violating the structural
// invariants — returns ErrSnapshotCorrupt.
func Load(r io.Reader, opts Options) (*Index, error) {
	var snap indexSnapshot
	if err := decodeSnapshot(r, &snap); err != nil {
		return nil, fmt.Errorf("semtree: load: %w: %v", ErrSnapshotCorrupt, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("semtree: load: %w: snapshot version %d, want %d",
			ErrSnapshotCorrupt, snap.Version, snapshotVersion)
	}
	if snap.Tree == nil {
		return nil, fmt.Errorf("semtree: load: %w: snapshot carries no tree", ErrSnapshotCorrupt)
	}
	metric, err := newMetric(opts.Registry, snap.Options)
	if err != nil {
		return nil, err
	}
	mapper, err := fastmap.FromSnapshot(fastmap.ConvertSnapshot(snap.Mapper, metric.Resolve), metric.ResolvedDistance)
	if err != nil {
		return nil, err
	}

	store := triple.NewStore()
	store.AddEntries(snap.Entries)

	// The cross-checks against the entry table come before the
	// structural validation inside RestoreTree, so an inconsistent
	// envelope fails fast either way.
	if snap.Tree.Size != int64(len(snap.Entries)) {
		return nil, fmt.Errorf("semtree: load: %w: tree snapshot holds %d points but %d entries persisted",
			ErrSnapshotCorrupt, snap.Tree.Size, len(snap.Entries))
	}
	if snap.Tree.Dim != snap.Options.Dims {
		return nil, fmt.Errorf("semtree: load: %w: tree snapshot dim %d, embedding dim %d",
			ErrSnapshotCorrupt, snap.Tree.Dim, snap.Options.Dims)
	}
	// Every point the tree serves must resolve in the entry table —
	// reloaded IDs are positional — or queries over the restored tree
	// would surface phantom IDs.
	if id, ok := strayID(snap.Tree, len(snap.Entries)); ok {
		return nil, fmt.Errorf("semtree: load: %w: tree references triple ID %d but only %d entries persisted",
			ErrSnapshotCorrupt, id, len(snap.Entries))
	}
	tree, err := core.RestoreTree(opts.treeConfig(snap.Options.Dims), snap.Tree)
	if err != nil {
		return nil, fmt.Errorf("semtree: load: %w", err)
	}
	return &Index{
		store: store, metric: metric, mapper: mapper, tree: tree,
		dims: snap.Options.Dims, opts: snap.Options,
	}, nil
}
