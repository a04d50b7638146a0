package semtree

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"semtree/internal/cluster"
	"semtree/internal/core"
	"semtree/internal/fastmap"
	"semtree/internal/kdtree"
	"semtree/internal/semdist"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// Options configure Build. The zero value selects the paper's defaults:
// Wu & Palmer concept distance, weights (0.4, 0.3, 0.3), 8 FastMap
// dimensions, bucket size 16, a single partition on a private
// in-process fabric.
type Options struct {
	// Registry resolves concept prefixes; nil selects the built-in
	// vocabularies (Fun, CmdType, MsgType, InType, std).
	Registry *vocab.Registry
	// Weights are Eq. 1's α, β, γ; the zero value selects (0.4, 0.3, 0.3).
	Weights semdist.Weights
	// Measure names the concept distance ("wupalmer", "path",
	// "leacockchodorow", "resnik", "lin", "jiangconrath").
	// Empty selects "wupalmer".
	Measure string
	// NumericLiterals compares numeric literals by relative difference
	// instead of Levenshtein.
	NumericLiterals bool
	// Dims is the FastMap dimensionality k (default 8).
	Dims int
	// PivotIterations is FastMap's pivot heuristic depth (default 5).
	PivotIterations int
	// Seed drives FastMap's pivot selection (deterministic builds).
	Seed int64
	// BucketSize is the KD-tree leaf capacity Bs (default 16).
	BucketSize int
	// PartitionCapacity is the per-partition point budget before the
	// build-partition algorithm fires (0 = single partition).
	PartitionCapacity int
	// MaxPartitions is the paper's M (default 1).
	MaxPartitions int
	// Fabric carries inter-partition messages; nil selects a private
	// zero-latency in-process fabric.
	Fabric cluster.Fabric
}

// Match is one retrieval result: a stored triple, its provenance, and
// its distance to the query in the embedded space (which approximates
// the Eq. 1 semantic distance).
type Match struct {
	ID     triple.ID
	Triple triple.Triple
	Prov   triple.Provenance
	Dist   float64
}

// Index is the SemTree facade: a triple store, the semantic metric, the
// FastMap embedding, and the distributed KD-tree over the images. All
// methods are safe for concurrent use after Build; Insert may run
// concurrently with queries.
type Index struct {
	store  *triple.Store
	metric *semdist.Metric
	mapper *fastmap.Mapper[semdist.Triple] // pivots resolved once, at Build or Load
	tree   *core.Tree
	dims   int
	opts   persistedOptions
}

// persistedOptions are the build parameters that determine the
// embedding geometry; they are written into snapshots so a reloaded
// index answers identically.
type persistedOptions struct {
	Weights         semdist.Weights
	Measure         string
	NumericLiterals bool
	Dims            int
}

// newMetric builds the Eq. 1 metric an index embeds under, from the
// embedding parameters — Build's options, or the ones Load finds
// persisted — over reg (nil selects the built-in vocabularies).
func newMetric(reg *vocab.Registry, p persistedOptions) (*semdist.Metric, error) {
	if reg == nil {
		reg = vocab.DefaultRegistry()
	}
	measure := semdist.ConceptMeasure(nil)
	if p.Measure != "" {
		m, err := semdist.MeasureByName(p.Measure)
		if err != nil {
			return nil, err
		}
		measure = m
	}
	return semdist.New(reg, semdist.Options{
		Weights:         p.Weights,
		Concept:         measure,
		NumericLiterals: p.NumericLiterals,
	})
}

// treeConfig maps the tree-layout options onto the distributed tree's
// configuration, at embedding dimensionality dims.
func (o Options) treeConfig(dims int) core.Config {
	return core.Config{
		Dim:               dims,
		BucketSize:        o.BucketSize,
		PartitionCapacity: o.PartitionCapacity,
		MaxPartitions:     o.MaxPartitions,
		Fabric:            o.Fabric,
	}
}

// Build embeds every triple of store with FastMap under the semantic
// metric and bulk-loads the distributed KD-tree with the images.
func Build(store *triple.Store, opts Options) (*Index, error) {
	if store == nil {
		return nil, fmt.Errorf("semtree: nil store")
	}
	dims := opts.Dims
	if dims <= 0 {
		dims = 8
	}
	embed := persistedOptions{
		Weights:         opts.Weights,
		Measure:         opts.Measure,
		NumericLiterals: opts.NumericLiterals,
		Dims:            dims,
	}
	metric, err := newMetric(opts.Registry, embed)
	if err != nil {
		return nil, err
	}
	embed.Weights = metric.Weights() // persist the resolved defaults

	// FastMap over the store's own dictionary encoding, read in place:
	// each distinct term is resolved once and a scan from a pivot costs
	// one term distance per distinct term, not one Eq. 1 per triple.
	// The corpus dies with this call; the mapper keeps only its
	// resolved pivots.
	terms, ids := store.Encoded()
	corpus := semdist.NewCorpus(metric, terms, ids)
	mapper, block, err := fastmap.BuildRows(corpus.Len(), corpus.Row, corpus.Triple, metric.ResolvedDistance,
		fastmap.Options{
			Dims:            dims,
			PivotIterations: opts.PivotIterations,
			Seed:            opts.Seed,
		})
	if err != nil {
		return nil, err
	}

	tree, err := core.New(opts.treeConfig(dims))
	if err != nil {
		return nil, err
	}
	// The tree adopts FastMap's block as its coordinate column: point i
	// is triple i.
	pointIDs := make([]uint64, corpus.Len())
	for i := range pointIDs {
		pointIDs[i] = uint64(i)
	}
	//semtree:allow ctxfirst: Build is construction-time and runs to completion by contract; there is no caller context to thread
	if err := tree.BulkLoadRows(context.Background(), block, pointIDs); err != nil {
		tree.Close()
		return nil, err
	}

	return &Index{store: store, metric: metric, mapper: mapper, tree: tree, dims: dims, opts: embed}, nil
}

// ErrUnindexedID reports a tree point whose ID has no entry in the
// triple store: the point was indexed out of band, so a query that
// retrieves it cannot resolve a stored triple. The error
// names the offending ID; it is attached to the failing query's Result
// and matched with errors.As.
type ErrUnindexedID struct {
	ID triple.ID
}

func (e ErrUnindexedID) Error() string {
	return fmt.Sprintf("semtree: point ID %d has no stored triple (indexed out of band?)", e.ID)
}

// embed maps t into the index's FastMap space: its three terms are
// resolved once, then compared with the pre-resolved pivots.
func (ix *Index) embed(t triple.Triple) []float64 {
	return ix.embedInto(make([]float64, ix.dims), t)
}

// embedInto is embed writing into dst, of length Dims.
func (ix *Index) embedInto(dst []float64, t triple.Triple) []float64 {
	return ix.mapper.MapInto(dst, ix.metric.Resolve(t))
}

// Insert adds a triple to the store and the index, returning its ID.
// Triples other writers added to the store directly (out of band) are
// in the store but not in the index; Save refuses such an index.
func (ix *Index) Insert(t triple.Triple, prov triple.Provenance) (triple.ID, error) {
	c := ix.embed(t)
	id := ix.store.Add(t, prov)
	point := kdtree.Point{Coords: c, ID: uint64(id)}
	if err := ix.tree.Insert(point); err != nil {
		return id, fmt.Errorf("semtree: insert: %w", err)
	}
	return id, nil
}

// BulkItem is one triple of a bulk ingest: the triple and its
// provenance, exactly as Insert takes them. It is the store's Entry,
// so a batch enters the store as it stands.
type BulkItem = triple.Entry

// BulkAdd ingests a batch of triples in one pass: the embeddings are
// computed by a bounded worker pool, the store is extended atomically
// (a concurrent Save sees all of the batch or none of it), and the
// images enter the distributed tree through its sorted
// bulk loader — balanced fragment grafts instead of per-point split
// cascades. Returned IDs are positional: ids[i] is items[i]. The
// context bounds the tree load; triples already committed to the store
// when it expires stay stored (re-running the load is idempotent only
// at the store level), so treat a context error as a partial ingest.
// Results are byte-identical to inserting the items one at a time.
func (ix *Index) BulkAdd(ctx context.Context, items []BulkItem) ([]triple.ID, error) {
	if len(items) == 0 {
		return nil, nil
	}
	// The images are rows of one block, each embedded in place.
	d := ix.dims
	block := make([]float64, len(items)*d)
	row := func(i int) []float64 { return block[i*d : (i+1)*d : (i+1)*d] }
	_ = core.RunBatch(ctx, len(items), 0, func(i int) error {
		ix.embedInto(row(i), items[i].Triple)
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ids := make([]triple.ID, len(items))
	pointIDs := make([]uint64, len(items))
	first := ix.store.AddEntries(items)
	for i := range items {
		ids[i] = first + triple.ID(i)
		pointIDs[i] = uint64(ids[i])
	}
	// The block goes to the tree as rows: adopted on an empty tree, read
	// on a live one.
	if err := ix.tree.BulkLoadRows(ctx, block, pointIDs); err != nil {
		return ids, fmt.Errorf("semtree: bulk add: %w", err)
	}
	return ids, nil
}

// KNearestIDs implements the reqcheck.Index interface: the IDs of the
// k stored triples closest to q, ascending by embedded distance;
// k <= 0 returns none.
func (ix *Index) KNearestIDs(ctx context.Context, q triple.Triple, k int) ([]triple.ID, error) {
	res, err := ix.Searcher(WithK(k)).Search(ctx, q)
	if err != nil {
		return nil, err
	}
	ids := make([]triple.ID, len(res.Matches))
	for i, m := range res.Matches {
		ids[i] = m.ID
	}
	return ids, nil
}

func (ix *Index) matches(neighbors []kdtree.Neighbor) ([]Match, error) {
	out := make([]Match, 0, len(neighbors))
	for _, n := range neighbors {
		e, ok := ix.store.Get(triple.ID(n.Point.ID))
		if !ok {
			return nil, ErrUnindexedID{ID: triple.ID(n.Point.ID)}
		}
		out = append(out, Match{
			ID:     triple.ID(n.Point.ID),
			Triple: e.Triple,
			Prov:   e.Prov,
			Dist:   n.Dist,
		})
	}
	return out, nil
}

func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
}

// SemanticDistance evaluates Eq. 1 between two triples under the
// index's metric (the exact, un-embedded distance).
func (ix *Index) SemanticDistance(a, b triple.Triple) float64 {
	return ix.metric.Distance(a, b)
}

// Store returns the underlying triple store.
func (ix *Index) Store() *triple.Store { return ix.store }

// Len returns the number of indexed triples.
func (ix *Index) Len() int { return ix.tree.Len() }

// Dims returns the embedding dimensionality.
func (ix *Index) Dims() int { return ix.dims }

// PartitionCount returns the number of KD-tree partitions in use.
func (ix *Index) PartitionCount() int { return ix.tree.PartitionCount() }

// Stats returns distributed-tree statistics.
func (ix *Index) Stats() (core.TreeStats, error) { return ix.tree.Stats() }

// Rebalance rebuilds the KD-tree balanced and redistributes the data
// across all budgeted partitions ("once built, modifying or rebalancing
// a Kd-tree is a non-trivial task", §III-B — this is the coordinated
// bulk-load that makes it tractable). It is the one layout-maintenance
// operation: an index grown by Insert scatters its leaves over the
// partitions as they spill, and Rebalance restores the layout a fresh
// bulk load of the same triples would have — literally: the same
// triples on the same partitions, whatever the index has served in
// between (the layout is a function of the data alone). The caller
// must guarantee
// quiescence: no concurrent Insert or queries.
func (ix *Index) Rebalance() error { return ix.tree.Rebalance() }

// Close releases the index's private fabric resources.
func (ix *Index) Close() error { return ix.tree.Close() }
