package fastmap

import (
	"runtime"
	"sync"
)

const (
	// minRange is the fewest objects a scan hands to one goroutine: a
	// build over fewer than two ranges' worth runs on the caller alone.
	minRange = 2048
	// tile is how many objects a range fills and reduces at a time, so
	// the distances are still in cache when they are reduced.
	tile = 512
)

// farthest is a range's farthest object from a scan's origin and its
// squared residual distance; i is -1 when the range offers none.
type farthest struct {
	i int
	d float64
}

// scanner runs BuildRows's one-to-all scans and projections over
// GOMAXPROCS contiguous index ranges: range 0 on the calling goroutine,
// the others on helpers started once per build.
type scanner struct {
	dims    int
	row     RowFunc
	block   []float64  // the n×dims coordinates, row-major, assigned so far
	bounds  []int      // range r is [bounds[r], bounds[r+1])
	far     []farthest // one per range: len(far) is the range count
	jobs    chan job
	done    chan struct{} // one send per helper and pass
	helpers sync.WaitGroup
	pass    func(r int) // scanRange, bound once so a scan allocates no method value

	// The scan in progress, read by every range.
	from int
	fill func(lo int, dst []float64)
	fc   []float64 // the origin's coordinates on the earlier axes
	dst  []float64
}

// job is range r of one pass.
type job struct {
	pass func(r int)
	r    int
}

func newScanner(block []float64, dims int, row RowFunc) *scanner {
	n := len(block) / dims
	nr := max(1, min(runtime.GOMAXPROCS(0), n/minRange))
	s := &scanner{
		dims: dims, row: row, block: block,
		bounds: make([]int, nr+1),
		far:    make([]farthest, nr),
		fc:     make([]float64, 0, dims),
	}
	s.pass = s.scanRange
	for r := range s.bounds {
		s.bounds[r] = r * n / nr
	}
	if nr > 1 {
		// done holds a whole pass's sends, so a helper never blocks on
		// it: if the caller's own range panics, stop still returns.
		s.jobs, s.done = make(chan job), make(chan struct{}, nr-1)
		s.helpers.Add(nr - 1)
		for range nr - 1 {
			go func() {
				defer s.helpers.Done()
				for j := range s.jobs {
					j.pass(j.r)
					s.done <- struct{}{}
				}
			}()
		}
	}
	return s
}

// stop ends the helpers and returns once they have exited.
func (s *scanner) stop() {
	if s.jobs != nil {
		close(s.jobs)
		s.helpers.Wait()
	}
}

// each runs pass over every range and returns when all are done.
func (s *scanner) each(pass func(r int)) {
	for r := 1; r < len(s.far); r++ {
		s.jobs <- job{pass, r}
	}
	pass(0)
	for r := 1; r < len(s.far); r++ {
		<-s.done
	}
}

// scan fills dst with the squared residual distance at axis ax from
// object from to every object — the distance squared, minus the squared
// coordinate differences on axes < ax, clamped at 0 (the distance need
// not be Euclidean) — and returns the farthest object other than from:
// the lowest index on ties, 0 when there is no other.
func (s *scanner) scan(ax, from int, dst []float64) int {
	return s.sweep(from, s.row(from), s.block[from*s.dims:from*s.dims+ax], dst)
}

// sweep is scan from an origin given by its fill and its coordinates
// on the earlier axes, fc: object from, or none when from is -1.
func (s *scanner) sweep(from int, fill func(lo int, dst []float64), fc, dst []float64) int {
	s.from, s.fill, s.dst = from, fill, dst
	s.fc = append(s.fc[:0], fc...)
	s.each(s.pass)
	// Ranges merge in index order and a later one wins only when
	// strictly farther, so the lowest index wins ties as in one pass.
	best := farthest{0, -1}
	for _, f := range s.far {
		if f.d > best.d {
			best = f
		}
	}
	return best.i
}

// scanRange is range r of scan: one pass, a tile at a time, that fills,
// reduces each distance to its residual and tracks the farthest object.
func (s *scanner) scanRange(r int) {
	lo, hi := s.bounds[r], s.bounds[r+1]
	best := farthest{-1, -1}
	for t := lo; t < hi; t += tile {
		d := s.dst[t:min(t+tile, hi)]
		s.fill(t, d)
		for i, v := range d {
			res := v * v
			ci := s.block[(t+i)*s.dims:]
			for h, f := range s.fc {
				diff := f - ci[h]
				res -= diff * diff
			}
			if res < 0 {
				res = 0
			}
			d[i] = res
			if res > best.d && t+i != s.from {
				best = farthest{t + i, res}
			}
		}
	}
	s.far[r] = best
}

// project assigns axis ax by the cosine law from the squared residual
// distances to the two pivots, at residual pivot distance dab: as the
// build assigned it, with the squared distance dab2 the build measured,
// or, for the objects mapped marks (nil marks none), as MapInto did,
// with dab·dab. The two differ in the last bit for some objects.
func (s *scanner) project(ax int, fromA, fromB []float64, dab2, dab float64, mapped []bool) {
	den := 2 * dab
	s.each(func(r int) {
		for i := s.bounds[r]; i < s.bounds[r+1]; i++ {
			if mapped != nil && mapped[i] {
				s.block[i*s.dims+ax] = (fromA[i] + dab*dab - fromB[i]) / (2 * dab)
			} else {
				s.block[i*s.dims+ax] = (fromA[i] + dab2 - fromB[i]) / den
			}
		}
	})
}
