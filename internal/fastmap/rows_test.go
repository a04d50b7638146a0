package fastmap

import (
	"math"
	"math/rand"
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
				row := func(from int, dst []float64) {
					for i := range dst {
						dst[i] = lumpy(objs[from], objs[i])
					}
				}
				mr, coordsR, err := BuildRows(n, row, func(i int) int { return objs[i] }, lumpy, opts)
				if err != nil {
					t.Fatal(err)
				}
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
	row := func(int, []float64) {}
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
