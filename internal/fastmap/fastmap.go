// Package fastmap implements the FastMap algorithm of Faloutsos & Lin
// (SIGMOD 1995), which SemTree uses to map triples — given only the
// semantic distance function of Eq. 1 — into a k-dimensional vector
// space indexable by a KD-tree (§III-A, feature iii).
//
// FastMap picks, per axis, two distant "pivot" objects via a linear-time
// heuristic and projects every object onto the line through them using
// the cosine law; subsequent axes work in the residual ("projected")
// distance, obtained by subtracting the coordinate differences already
// assigned. The Mapper retains the pivot objects and their coordinates,
// so out-of-sample objects (queries) can be mapped later with the same
// recursion.
//
// # One kernel, two ways to feed it
//
// A build only ever needs the distances from one object to all n of
// them: each scan of the pivot heuristic and the two coordinate columns
// of an axis (which are the heuristic's last two scans when it
// converged, and are reused). BuildRows is that kernel over a RowFunc;
// Build is the wrapper whose rows are DistFunc calls. A caller whose
// distance shares work per object — SemTree interns triple terms and
// computes one term distance per distinct term — supplies its own row
// and pays O(distinct) instead of O(n) kernel calls per scan.
//
// A RowFunc has two steps. row(from) does the per-object work once and
// returns a fill; fill(lo, dst) writes the distances from object from
// to objects lo … lo+len(dst)-1.
//
// # Every core, one pass per range
//
// A scan is split into GOMAXPROCS contiguous index ranges of at least
// 2 048 objects; a build smaller than two ranges runs on the caller
// alone. The helper goroutines are started once per build. Each range
// makes one pass, a tile of 512 objects at a time: fill, then square,
// subtract the squared coordinate differences on the earlier axes (read
// in place from the row block the build returns), clamp at 0, and track
// its farthest object. The ranges' farthest objects
// merge in index order and a later range wins only when strictly
// farther, so the lowest index wins ties exactly as in one pass; the
// per-axis projection is split the same way. Every value is computed
// by the same operations in the same order at any GOMAXPROCS, so
// pivots and coordinates are bit-identical to a one-range build.
//
// When a pass of the heuristic finds as its next a the object whose
// scan is already in hand, the heuristic has converged (that scan's
// farthest object is the current b) and the scan is reused, not made
// again.
//
// The concurrency contract: BuildRows prepares one row at a time, and
// calls the fill it returns concurrently on disjoint ranges that
// together cover [0, n); the next row is prepared only after every
// fill of the previous one has returned. So Build's DistFunc must be
// safe for concurrent use, as a Mapper's already must be.
//
// # The distance contract
//
// DistFunc and RowFunc must be deterministic (same pair, same bits,
// every time), symmetric and non-negative, and a RowFunc must agree bit
// for bit with the DistFunc handed to the same BuildRows. FastMap asks
// for a pair more than once — across scans during the build, again in
// Map — and reuses scans it has already made; under this contract the
// embedding is a pure function of (objects, distance, Options), and a
// Mapper restored by FromSnapshot maps to the coordinates the build
// stored. The triangle inequality is not required: negative residuals
// are clamped at 0.
//
// A Mapper is immutable and safe for concurrent use; MapInto allocates
// nothing.
package fastmap

import (
	"errors"
	"math"
	"math/rand"
)

// DistFunc is a non-negative, symmetric, deterministic distance between
// two objects (see the package comment for why each matters).
type DistFunc[T any] func(a, b T) float64

// RowFunc prepares the one-to-all scan from object from and returns its
// fill: fill(lo, dst) writes into dst[j] the distance from object from
// to object lo+j, for every j < len(dst), under the same contract as
// DistFunc. A build prepares one scan at a time and then calls its fill
// concurrently on disjoint ranges that together cover every object.
type RowFunc func(from int) func(lo int, dst []float64)

// Options configure Build.
type Options struct {
	// Dims is the target dimensionality k. Default 8.
	Dims int
	// PivotIterations is the number of passes of the choose-distant-
	// objects heuristic per axis. Default 5 (the paper's constant).
	PivotIterations int
	// Seed drives the initial pivot choice, making builds deterministic.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Dims <= 0 {
		o.Dims = 8
	}
	if o.PivotIterations <= 0 {
		o.PivotIterations = 5
	}
	return o
}

// Mapper embeds objects into the k-dimensional FastMap space. It is
// immutable after Build and safe for concurrent use.
type Mapper[T any] struct {
	dims    int
	dist    DistFunc[T]
	pivotA  []T         // per axis
	pivotB  []T         // per axis
	coordsA [][]float64 // full coordinates of pivotA per axis
	coordsB [][]float64 // full coordinates of pivotB per axis
	dAB     []float64   // residual pivot distance at each axis (not squared)
}

// Build runs FastMap over objs and returns the mapper plus the
// coordinates of every input object (row i ↔ objs[i]), each a capped
// view of BuildRows' block. It is BuildRows with each row filled by
// calls of dist(objs[from], objs[i]), which may run on several
// goroutines at once.
func Build[T any](objs []T, dist DistFunc[T], opts Options) (*Mapper[T], [][]float64, error) {
	row := func(from int) func(lo int, dst []float64) {
		a := objs[from]
		return func(lo int, dst []float64) {
			for i, o := range objs[lo : lo+len(dst)] {
				dst[i] = dist(a, o)
			}
		}
	}
	m, block, err := BuildRows(len(objs), row, func(i int) T { return objs[i] }, dist, opts)
	if err != nil {
		return nil, nil, err
	}
	return m, rowsOf(block, m.dims), nil
}

// rowsOf carves block into rows of dims floats, each capped.
func rowsOf(block []float64, dims int) [][]float64 {
	rows := make([][]float64, len(block)/dims)
	for i := range rows {
		rows[i] = block[i*dims : (i+1)*dims : (i+1)*dims]
	}
	return rows
}

// BuildRows is the FastMap build over n objects known only by index:
// row supplies one-to-all distances, object returns the i-th object
// (called for the chosen pivots only, which the mapper retains), and
// dist is the pairwise distance the returned mapper embeds
// out-of-sample objects with. The fill row(from) returns must agree
// bit for bit with dist(object(from), object(i)), or Map will not
// reproduce the build's coordinates. The coordinates come back as one
// n×Dims block, object i's in block[i*Dims:(i+1)*Dims], which the
// caller owns: semtree.Build hands it to the tree, which adopts it as
// its coordinate column.
func BuildRows[T any](n int, row RowFunc, object func(i int) T, dist DistFunc[T], opts Options) (*Mapper[T], []float64, error) {
	if row == nil || object == nil || dist == nil {
		return nil, nil, errors.New("fastmap: nil row, object or distance function")
	}
	opts = opts.withDefaults()
	dims := opts.Dims
	block := make([]float64, n*dims)
	m := &Mapper[T]{
		dims:    opts.Dims,
		dist:    dist,
		pivotA:  make([]T, opts.Dims),
		pivotB:  make([]T, opts.Dims),
		coordsA: make([][]float64, opts.Dims),
		coordsB: make([][]float64, opts.Dims),
		dAB:     make([]float64, opts.Dims),
	}
	if n == 0 {
		// A mapper with no pivots maps everything to the origin.
		for ax := 0; ax < opts.Dims; ax++ {
			m.coordsA[ax] = make([]float64, opts.Dims)
			m.coordsB[ax] = make([]float64, opts.Dims)
		}
		return m, block, nil
	}

	s := newScanner(block, dims, row)
	defer s.stop()
	rng := rand.New(rand.NewSource(opts.Seed))
	fromA, fromB := make([]float64, n), make([]float64, n)
	for ax := 0; ax < opts.Dims; ax++ {
		// Choose-distant-objects heuristic. Each pass scans from b to
		// find a, then from a to find the next b; on convergence both
		// scans are the coordinate columns and are not repeated.
		b := rng.Intn(n)
		a := -1 // the object fromA holds the scan of
		converged := false
		for it := 0; it < opts.PivotIterations && !converged; it++ {
			na := s.scan(ax, b, fromB)
			if na == a { // fromA holds a's scan, whose farthest object is b
				converged = true
				break
			}
			a = na
			nb := s.scan(ax, a, fromA)
			converged = nb == b
			b = nb
		}
		if !converged {
			s.scan(ax, b, fromB)
		}
		dab2 := fromA[b]
		m.pivotA[ax], m.pivotB[ax] = object(a), object(b)
		m.dAB[ax] = math.Sqrt(dab2)
		if dab2 != 0 { // otherwise every residual distance is zero and the axis stays 0
			s.project(ax, fromA, fromB, dab2, 2*m.dAB[ax])
		}
		m.coordsA[ax] = append([]float64(nil), block[a*dims:(a+1)*dims]...)
		m.coordsB[ax] = append([]float64(nil), block[b*dims:(b+1)*dims]...)
	}
	return m, block, nil
}

// Dims returns the dimensionality of the embedding.
func (m *Mapper[T]) Dims() int { return m.dims }

// Map embeds an out-of-sample object using the stored pivots.
func (m *Mapper[T]) Map(obj T) []float64 {
	return m.MapInto(make([]float64, m.dims), obj)
}

// MapInto is Map into dst, which must have length Dims; it allocates
// nothing itself. The recursion mirrors Build: the residual distance
// between obj and a pivot at axis ax subtracts the squared coordinate
// differences assigned on earlier axes.
func (m *Mapper[T]) MapInto(dst []float64, obj T) []float64 {
	dst = dst[:m.dims]
	for ax := range dst {
		dab := m.dAB[ax]
		if dab == 0 {
			dst[ax] = 0 // axis collapsed during build
			continue
		}
		dai2 := m.resid2(dst[:ax], obj, m.pivotA[ax], m.coordsA[ax])
		dbi2 := m.resid2(dst[:ax], obj, m.pivotB[ax], m.coordsB[ax])
		dst[ax] = (dai2 + dab*dab - dbi2) / (2 * dab)
	}
	return dst
}

// resid2 is the squared residual distance between obj, whose
// coordinates so far are done, and a pivot.
func (m *Mapper[T]) resid2(done []float64, obj, pivot T, pivotCoords []float64) float64 {
	d := m.dist(obj, pivot)
	r := d * d
	for h, c := range done {
		diff := c - pivotCoords[h]
		r -= diff * diff
	}
	if r < 0 {
		return 0
	}
	return r
}

// MapAll embeds a batch of out-of-sample objects.
func (m *Mapper[T]) MapAll(objs []T) [][]float64 {
	out := make([][]float64, len(objs))
	for i, o := range objs {
		out[i] = m.Map(o)
	}
	return out
}

// Snapshot is the serializable state of a Mapper: the pivot objects,
// their full coordinates, and the per-axis pivot distances. Combined
// with the (non-serializable) distance function it reconstructs the
// exact embedding, so an index can be persisted and reloaded.
type Snapshot[T any] struct {
	Dims    int
	PivotA  []T
	PivotB  []T
	CoordsA [][]float64
	CoordsB [][]float64
	DAB     []float64
}

// Snapshot extracts the mapper's serializable state.
func (m *Mapper[T]) Snapshot() Snapshot[T] {
	return Snapshot[T]{
		Dims:    m.dims,
		PivotA:  append([]T(nil), m.pivotA...),
		PivotB:  append([]T(nil), m.pivotB...),
		CoordsA: append([][]float64(nil), m.coordsA...),
		CoordsB: append([][]float64(nil), m.coordsB...),
		DAB:     append([]float64(nil), m.dAB...),
	}
}

// ConvertSnapshot returns s with every pivot object passed through f,
// for callers whose mapper works on a derived form of the objects they
// persist. The coordinate slices are shared, not copied.
func ConvertSnapshot[T, U any](s Snapshot[T], f func(T) U) Snapshot[U] {
	out := Snapshot[U]{
		Dims:    s.Dims,
		PivotA:  make([]U, len(s.PivotA)),
		PivotB:  make([]U, len(s.PivotB)),
		CoordsA: s.CoordsA,
		CoordsB: s.CoordsB,
		DAB:     s.DAB,
	}
	for i, p := range s.PivotA {
		out.PivotA[i] = f(p)
	}
	for i, p := range s.PivotB {
		out.PivotB[i] = f(p)
	}
	return out
}

// FromSnapshot reconstructs a Mapper from a snapshot and the distance
// function it was built under. It validates the snapshot's internal
// consistency: the lengths agree with Dims, and every pivot distance
// and pivot coordinate is finite and every pivot distance non-negative.
func FromSnapshot[T any](s Snapshot[T], dist DistFunc[T]) (*Mapper[T], error) {
	if dist == nil {
		return nil, errors.New("fastmap: nil distance function")
	}
	if s.Dims <= 0 {
		return nil, errors.New("fastmap: snapshot has non-positive dims")
	}
	if len(s.PivotA) != s.Dims || len(s.PivotB) != s.Dims ||
		len(s.CoordsA) != s.Dims || len(s.CoordsB) != s.Dims || len(s.DAB) != s.Dims {
		return nil, errors.New("fastmap: snapshot arrays disagree with dims")
	}
	for ax := 0; ax < s.Dims; ax++ {
		if d := s.DAB[ax]; d < 0 || !finite(d) {
			return nil, errors.New("fastmap: negative or non-finite pivot distance in snapshot")
		}
		if s.DAB[ax] > 0 && (len(s.CoordsA[ax]) != s.Dims || len(s.CoordsB[ax]) != s.Dims) {
			return nil, errors.New("fastmap: pivot coordinates disagree with dims")
		}
		for _, c := range [2][]float64{s.CoordsA[ax], s.CoordsB[ax]} {
			for _, v := range c {
				if !finite(v) {
					return nil, errors.New("fastmap: non-finite pivot coordinate in snapshot")
				}
			}
		}
	}
	return &Mapper[T]{
		dims:    s.Dims,
		dist:    dist,
		pivotA:  s.PivotA,
		pivotB:  s.PivotB,
		coordsA: s.CoordsA,
		coordsB: s.CoordsB,
		dAB:     s.DAB,
	}, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Euclidean returns the Euclidean distance between two coordinate
// vectors of equal length.
func Euclidean(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Stress estimates the normalized embedding stress
// sqrt(Σ(d̂−d)² / Σd²) over up to samplePairs random object pairs,
// where d is the original distance and d̂ the Euclidean distance of the
// images. Lower is better; 0 means a perfect isometry.
func Stress[T any](objs []T, dist DistFunc[T], coords [][]float64, samplePairs int, seed int64) float64 {
	n := len(objs)
	if n < 2 || samplePairs <= 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	num, den := 0.0, 0.0
	for s := 0; s < samplePairs; s++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		d := dist(objs[i], objs[j])
		dh := Euclidean(coords[i], coords[j])
		num += (dh - d) * (dh - d)
		den += d * d
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}
