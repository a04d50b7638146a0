package bench

import (
	"sort"

	"semtree/internal/fastmap"
	"semtree/internal/kdtree"
	"semtree/internal/semdist"
	"semtree/internal/synth"
	"semtree/internal/vocab"
)

// sweepData holds a workload embedded once at the largest size: the
// points are i.i.d., so a prefix of the embedding is a valid smaller
// workload and every size of a sweep shares the same space.
type sweepData struct {
	points  []kdtree.Point
	queries [][]float64
	stress  float64
}

// makeSweep generates maxN synthetic requirement triples, embeds them
// with FastMap under the default Eq. 1 metric, and maps a separate
// query workload into the same space. The actor population is large
// (400) so the workload is dominated by distinct triples: with the
// default 40 actors most triples are exact duplicates, k-NN balls
// collapse to radius ~0 and the efficiency figures stop exercising
// backtracking.
func makeSweep(maxN, queries, dims int, seed int64) (*sweepData, error) {
	gen := synth.New(synth.Config{Seed: seed, Actors: 400}, nil)
	triples := gen.Triples(maxN)
	metric, err := semdist.New(vocab.DefaultRegistry(), semdist.Options{})
	if err != nil {
		return nil, err
	}
	mapper, coords, err := fastmap.Build(triples, metric.Distance, fastmap.Options{
		Dims: dims,
		Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	d := &sweepData{points: make([]kdtree.Point, maxN)}
	for i, c := range coords {
		d.points[i] = kdtree.Point{Coords: c, ID: uint64(i)}
	}
	qGen := synth.New(synth.Config{Seed: seed + 1, Actors: 400}, nil)
	for q := 0; q < queries; q++ {
		d.queries = append(d.queries, mapper.Map(qGen.RandomTriple()))
	}
	sample := maxN * 4
	if sample > 20000 {
		sample = 20000
	}
	d.stress = fastmap.Stress(triples, metric.Distance, coords, sample, seed+2)
	return d, nil
}

// prefix returns a copy of the first n points (tree builders reorder
// their input in place).
func (d *sweepData) prefix(n int) []kdtree.Point {
	if n > len(d.points) {
		n = len(d.points)
	}
	return append([]kdtree.Point(nil), d.points[:n]...)
}

// prefixChainWorkload returns the first n points in ascending first-
// coordinate order with a negligible (≤1e-4) deterministic epsilon
// added to the first coordinate: the adversarial workload that fully
// degenerates the chain split policy. Duplicated triples embed to
// identical coordinates, which would otherwise cap the chain depth at
// the number of distinct values; the epsilon is orders of magnitude
// below the coordinate scale, so distances are unaffected. Coordinates
// are deep-copied (the base points are shared across series).
func (d *sweepData) prefixChainWorkload(n int) []kdtree.Point {
	pts := d.prefix(n)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Coords[0] < pts[j].Coords[0] })
	for i := range pts {
		c := append([]float64(nil), pts[i].Coords...)
		c[0] += float64(i) * 1e-9
		pts[i].Coords = c
	}
	return pts
}

// maxSize returns the largest value in sizes.
func maxSize(sizes []int) int {
	m := 0
	for _, s := range sizes {
		if s > m {
			m = s
		}
	}
	return m
}
