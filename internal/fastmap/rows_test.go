package fastmap

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// referenceBuild is Build as it was before the row form: every residual
// distance is its own dist call and nothing is reused between the pivot
// scans and the coordinate columns. It returns the pivot indices, the
// per-axis pivot distances and the coordinates.
func referenceBuild[T any](objs []T, dist DistFunc[T], opts Options) (pa, pb []int, dAB []float64, coords [][]float64) {
	opts = opts.withDefaults()
	n := len(objs)
	coords = make([][]float64, n)
	for i := range coords {
		coords[i] = make([]float64, opts.Dims)
	}
	pa, pb, dAB = make([]int, opts.Dims), make([]int, opts.Dims), make([]float64, opts.Dims)
	rng := rand.New(rand.NewSource(opts.Seed))
	resid2 := func(ax, i, j int) float64 {
		d := dist(objs[i], objs[j])
		r := d * d
		for h := 0; h < ax; h++ {
			diff := coords[i][h] - coords[j][h]
			r -= diff * diff
		}
		if r < 0 {
			return 0
		}
		return r
	}
	argmaxResid := func(ax, from int) int {
		best, bestD := 0, -1.0
		for i := 0; i < n; i++ {
			if i == from {
				continue
			}
			if d := resid2(ax, from, i); d > bestD {
				best, bestD = i, d
			}
		}
		return best
	}
	for ax := 0; ax < opts.Dims; ax++ {
		b := rng.Intn(n)
		a := b
		for it := 0; it < opts.PivotIterations; it++ {
			a = argmaxResid(ax, b)
			nb := argmaxResid(ax, a)
			if nb == b {
				break
			}
			b = nb
		}
		dab2 := resid2(ax, a, b)
		pa[ax], pb[ax], dAB[ax] = a, b, math.Sqrt(dab2)
		if dab2 == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			coords[i][ax] = (resid2(ax, a, i) + dab2 - resid2(ax, b, i)) / (2 * dAB[ax])
		}
	}
	return pa, pb, dAB, coords
}

// lumpy is a deterministic, symmetric, decidedly non-Euclidean distance
// over ints with many ties and zeros, so clamping, collapsed axes and
// the lowest-index tie-break all occur.
func lumpy(a, b int) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	return float64((a*7+b*13)%11)/10 + math.Abs(math.Sin(float64(a^b)))/3
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBuildMatchesPairwiseReference: the row kernel — through the
// generic wrapper and through a caller-supplied row function — gives
// the pivots, pivot distances and coordinates of the pairwise algorithm
// bit for bit, whether the pivot heuristic converges or runs out of
// iterations.
func TestBuildMatchesPairwiseReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 40, 257} {
		objs := make([]int, n)
		for i := range objs {
			objs[i] = (i * 37) % 101 // repeats beyond 101 objects
		}
		for _, iters := range []int{1, 2, 5} {
			for _, seed := range []int64{1, 2, 3, 42} {
				opts := Options{Dims: 6, PivotIterations: iters, Seed: seed}
				pa, pb, dAB, want := referenceBuild(objs, lumpy, opts)

				m, coords, err := Build(objs, lumpy, opts)
				if err != nil {
					t.Fatal(err)
				}
				row := func(from int) func(lo int, dst []float64) {
					return func(lo int, dst []float64) {
						for i := range dst {
							dst[i] = lumpy(objs[from], objs[lo+i])
						}
					}
				}
				mr, blockR, err := BuildRows(n, row, func(i int) int { return objs[i] }, lumpy, opts)
				if err != nil {
					t.Fatal(err)
				}
				coordsR := rowsOf(blockR, opts.Dims)
				for _, got := range []struct {
					name   string
					m      *Mapper[int]
					coords [][]float64
				}{{"Build", m, coords}, {"BuildRows", mr, coordsR}} {
					if !sameBits(got.m.dAB, dAB) {
						t.Fatalf("%s n=%d iters=%d seed=%d: dAB %v, reference %v", got.name, n, iters, seed, got.m.dAB, dAB)
					}
					for ax := range pa {
						if got.m.pivotA[ax] != objs[pa[ax]] || got.m.pivotB[ax] != objs[pb[ax]] {
							t.Fatalf("%s n=%d iters=%d seed=%d axis %d: pivots (%d, %d), reference (%d, %d)",
								got.name, n, iters, seed, ax, got.m.pivotA[ax], got.m.pivotB[ax], objs[pa[ax]], objs[pb[ax]])
						}
						// A pivot's stored coordinates are the axes assigned so far.
						if !sameBits(got.m.coordsA[ax][:ax+1], want[pa[ax]][:ax+1]) || !sameBits(got.m.coordsB[ax][:ax+1], want[pb[ax]][:ax+1]) {
							t.Fatalf("%s n=%d iters=%d seed=%d: pivot coordinates at axis %d differ", got.name, n, iters, seed, ax)
						}
					}
					for i := range want {
						if !sameBits(got.coords[i], want[i]) {
							t.Fatalf("%s n=%d iters=%d seed=%d: object %d at %v, reference %v", got.name, n, iters, seed, i, got.coords[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestBuildRowsRejectsNil(t *testing.T) {
	row := func(int) func(int, []float64) { return func(int, []float64) {} }
	obj := func(i int) int { return i }
	if _, _, err := BuildRows(1, nil, obj, lumpy, Options{}); err == nil {
		t.Error("nil row accepted")
	}
	if _, _, err := BuildRows(1, row, nil, lumpy, Options{}); err == nil {
		t.Error("nil object accepted")
	}
	if _, _, err := BuildRows[int](1, row, obj, nil, Options{}); err == nil {
		t.Error("nil dist accepted")
	}
}

// TestMapIntoOverwritesAndDoesNotAllocate: MapInto is Map into the
// caller's slice — collapsed axes included, so a dirty buffer is safe —
// and allocates nothing.
func TestMapIntoOverwritesAndDoesNotAllocate(t *testing.T) {
	objs := []int{4, 4, 9, 9, 4} // two distinct objects: axes beyond the first collapse
	m, _, err := Build(objs, lumpy, Options{Dims: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dst := []float64{9, 9, 9, 9}
	for _, q := range []int{4, 9, 17} {
		for i := range dst {
			dst[i] = 9
		}
		if got := m.MapInto(dst, q); !sameBits(got, m.Map(q)) {
			t.Fatalf("MapInto(%d) = %v, Map = %v", q, got, m.Map(q))
		}
	}
	if n := testing.AllocsPerRun(100, func() { m.MapInto(dst, 17) }); n != 0 {
		t.Errorf("MapInto: %v allocs, want 0", n)
	}
}

// TestMapperConcurrentUse hammers one mapper from 8 goroutines (run
// under -race).
func TestMapperConcurrentUse(t *testing.T) {
	objs := make([]int, 120)
	for i := range objs {
		objs[i] = i
	}
	m, _, err := Build(objs, lumpy, Options{Dims: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := m.MapAll(objs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, m.Dims())
			for round := 0; round < 300; round++ {
				i := (g*17 + round) % len(objs)
				if got := m.MapInto(dst, objs[i]); !sameBits(got, want[i]) {
					t.Errorf("goroutine %d: Map(%d) = %v, want %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestConvertSnapshot(t *testing.T) {
	objs := []int{1, 5, 9, 14, 20}
	m, _, err := Build(objs, lumpy, Options{Dims: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Persist the pivots as floats, restore them as ints.
	stored := ConvertSnapshot(m.Snapshot(), func(i int) float64 { return float64(i) })
	back, err := FromSnapshot(ConvertSnapshot(stored, func(f float64) int { return int(f) }), lumpy)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 30; q++ {
		if !sameBits(m.Map(q), back.Map(q)) {
			t.Fatalf("converted snapshot maps %d to %v, original %v", q, back.Map(q), m.Map(q))
		}
	}
}

// recorder is a RowFunc over dist that logs every scan: the object it
// was prepared from and the [lo, hi) span of every fill call, which may
// arrive from several goroutines at once.
type recorder struct {
	mu    sync.Mutex
	objs  []int
	dist  DistFunc[int]
	scans []recordedScan
}

type recordedScan struct {
	from  int
	spans [][2]int
}

func (rec *recorder) row(from int) func(lo int, dst []float64) {
	rec.mu.Lock()
	rec.scans = append(rec.scans, recordedScan{from: from})
	k := len(rec.scans) - 1
	rec.mu.Unlock()
	a := rec.objs[from]
	return func(lo int, dst []float64) {
		for i := range dst {
			dst[i] = rec.dist(a, rec.objs[lo+i])
		}
		rec.mu.Lock()
		rec.scans[k].spans = append(rec.scans[k].spans, [2]int{lo, lo + len(dst)})
		rec.mu.Unlock()
	}
}

// atProcs runs fn with GOMAXPROCS set to procs.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestChunkedBuildMatchesOneRange: above one range, every scan is split
// into GOMAXPROCS contiguous ranges that run concurrently. Objects are
// their indices and the distance is lumpy's over i·37 mod 101, so
// distinct objects 101 apart are at the same distance from everything:
// the farthest value of every scan is tied across every range boundary,
// and only the merge's lowest-index tie-break names the pivots. Pivots,
// pivot distances and coordinates — through BuildRows and through Build
// — are the bits of the one-range build at GOMAXPROCS 2, 3 and 8, which
// are the pairwise reference's; each scan's fills are disjoint, cover
// [0, n), and split at every range boundary.
func TestChunkedBuildMatchesOneRange(t *testing.T) {
	n := 8*minRange + 333 // eight ranges at GOMAXPROCS 8; bounds off the tile grid at 3
	objs := make([]int, n)
	for i := range objs {
		objs[i] = i
	}
	tied := func(a, b int) float64 { return lumpy(a*37%101, b*37%101) }
	opts := Options{Dims: 6, PivotIterations: 5, Seed: 7}
	pa, pb, dAB, want := referenceBuild(objs, tied, opts)

	for _, procs := range []int{1, 2, 3, 8} {
		rec := &recorder{objs: objs, dist: tied}
		var m, mg *Mapper[int]
		var block []float64
		var coordsG [][]float64
		atProcs(procs, func() {
			var err error
			if m, block, err = BuildRows(n, rec.row, func(i int) int { return i }, tied, opts); err != nil {
				t.Fatal(err)
			}
			if mg, coordsG, err = Build(objs, tied, opts); err != nil {
				t.Fatal(err)
			}
		})
		for _, got := range []struct {
			name   string
			m      *Mapper[int]
			coords [][]float64
		}{{"BuildRows", m, rowsOf(block, opts.Dims)}, {"Build", mg, coordsG}} {
			if !sameBits(got.m.dAB, dAB) {
				t.Fatalf("GOMAXPROCS %d %s: dAB %v, want %v", procs, got.name, got.m.dAB, dAB)
			}
			for ax := range pa {
				if got.m.pivotA[ax] != objs[pa[ax]] || got.m.pivotB[ax] != objs[pb[ax]] {
					t.Fatalf("GOMAXPROCS %d %s axis %d: pivots (%d, %d), want (%d, %d)",
						procs, got.name, ax, got.m.pivotA[ax], got.m.pivotB[ax], objs[pa[ax]], objs[pb[ax]])
				}
				if !sameBits(got.m.coordsA[ax][:ax+1], want[pa[ax]][:ax+1]) || !sameBits(got.m.coordsB[ax][:ax+1], want[pb[ax]][:ax+1]) {
					t.Fatalf("GOMAXPROCS %d %s: pivot coordinates at axis %d differ", procs, got.name, ax)
				}
			}
			for i := range want {
				if !sameBits(got.coords[i], want[i]) {
					t.Fatalf("GOMAXPROCS %d %s: object %d at %v, want %v", procs, got.name, i, got.coords[i], want[i])
				}
			}
		}

		nr := min(procs, n/minRange)
		first := rec.scans[0].from
		var far float64
		for i := range objs {
			if i != first {
				far = max(far, tied(first, i))
			}
		}
		for r := range nr {
			found := false
			for i := r * n / nr; i < (r+1)*n/nr && !found; i++ {
				found = i != first && tied(first, i) == far
			}
			if !found {
				t.Fatalf("GOMAXPROCS %d: range %d holds no object at the first scan's farthest value", procs, r)
			}
		}
		for k, sc := range rec.scans {
			spans := slices.Clone(sc.spans)
			slices.SortFunc(spans, func(a, b [2]int) int { return a[0] - b[0] })
			next := 0
			for _, sp := range spans {
				if sp[0] != next || sp[1] <= sp[0] {
					t.Fatalf("GOMAXPROCS %d scan %d: fill [%d, %d) after [0, %d)", procs, k, sp[0], sp[1], next)
				}
				next = sp[1]
			}
			if next != n {
				t.Fatalf("GOMAXPROCS %d scan %d: fills cover [0, %d), want [0, %d)", procs, k, next, n)
			}
			for r := 1; r < nr; r++ {
				if _, ok := slices.BinarySearchFunc(spans, r*n/nr, func(sp [2]int, lo int) int { return sp[0] - lo }); !ok {
					t.Fatalf("GOMAXPROCS %d scan %d: no fill starts at range boundary %d", procs, k, r*n/nr)
				}
			}
		}
	}
}

// TestReusedScanPreparedOnce: on points along a line the heuristic runs
// b₀ → a → b → a. The second a is the object whose scan is in hand, so
// it is reused: the axis prepares three scans, a's once, not four.
func TestReusedScanPreparedOnce(t *testing.T) {
	n := 2*minRange + 5
	objs := make([]int, n)
	for i := range objs {
		objs[i] = (i * 7919) % n // positions on the line, endpoints inside
	}
	line := func(a, b int) float64 { return math.Abs(float64(a - b)) }
	for _, procs := range []int{1, 2} {
		rec := &recorder{objs: objs, dist: line}
		var m *Mapper[int]
		atProcs(procs, func() {
			var err error
			if m, _, err = BuildRows(n, rec.row, func(i int) int { return objs[i] }, line, Options{Dims: 1, Seed: 3}); err != nil {
				t.Fatal(err)
			}
		})
		var at []int // the positions scanned from
		for _, sc := range rec.scans {
			at = append(at, objs[sc.from])
		}
		a, b := m.pivotA[0], m.pivotB[0]
		if min(a, b) != 0 || max(a, b) != n-1 {
			t.Fatalf("GOMAXPROCS %d: pivots at %d and %d, want the line's ends", procs, a, b)
		}
		if len(at) != 3 || at[1] != a || at[2] != b || at[0] == 0 || at[0] == n-1 {
			t.Fatalf("GOMAXPROCS %d: scans from positions %v, want [b₀ %d %d] with b₀ inside the line", procs, at, a, b)
		}
	}
}
