package fastmap

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestProjectReproducesBuild: Project under a build's own pivots gives
// every object the coordinates it was given, bit for bit — the build's
// block for objects the build placed, Map's for objects marked mapped —
// through the build's mapper and through one FromSnapshot restores, at
// one range and at two. The build and Map disagree in the last bit on
// some objects, so a projection that ignored the mark would fail here.
func TestProjectReproducesBuild(t *testing.T) {
	n := 2*minRange + 333 // two ranges at GOMAXPROCS 2, bounds off the tile grid
	ints := make([]int, n)
	for i := range ints {
		ints[i] = i
	}
	tied := func(a, b int) float64 { return lumpy(a*37%101, b*37%101) }
	checkProject(t, "tied", ints, tied, Options{Dims: 6, Seed: 7})
	points := euclideanPoints(rand.New(rand.NewSource(23)), n, 12)
	checkProject(t, "euclidean", points, func(a, b []float64) float64 { return Euclidean(a, b) }, Options{Dims: 8, Seed: 3})
}

func checkProject[T any](t *testing.T, name string, objs []T, dist DistFunc[T], opts Options) {
	t.Helper()
	n := len(objs)
	row := func(from int) func(lo int, dst []float64) {
		return func(lo int, dst []float64) {
			for i := range dst {
				dst[i] = dist(objs[from], objs[lo+i])
			}
		}
	}
	pivotRow := func(p T) func(lo int, dst []float64) {
		return func(lo int, dst []float64) {
			for i := range dst {
				dst[i] = dist(p, objs[lo+i])
			}
		}
	}
	mapped := make([]bool, n)
	for i := range mapped {
		mapped[i] = i%3 == 0
	}
	for _, procs := range []int{1, 2} {
		atProcs(procs, func() {
			m, block, err := BuildRows(n, row, func(i int) T { return objs[i] }, dist, opts)
			if err != nil {
				t.Fatal(err)
			}
			d := m.Dims()
			differ := 0
			for i := range n {
				if !sameBits(m.Map(objs[i]), block[i*d:(i+1)*d]) {
					differ++
				}
			}
			if differ == 0 {
				t.Fatalf("%s GOMAXPROCS %d: Map reproduces every build coordinate; the test cannot tell the projections apart", name, procs)
			}
			restored, err := FromSnapshot(m.Snapshot(), dist)
			if err != nil {
				t.Fatal(err)
			}
			for _, mm := range []struct {
				what string
				m    *Mapper[T]
			}{{"build mapper", m}, {"restored mapper", restored}} {
				for _, marks := range []struct {
					what   string
					mapped []bool
				}{{"none mapped", nil}, {"every third mapped", mapped}} {
					what := fmt.Sprintf("%s GOMAXPROCS %d %s, %s", name, procs, mm.what, marks.what)
					got := make([]float64, n*d)
					mm.m.Project(got, pivotRow, marks.mapped)
					for i := range n {
						want := block[i*d : (i+1)*d]
						if marks.mapped != nil && marks.mapped[i] {
							want = m.Map(objs[i])
						}
						if !sameBits(got[i*d:(i+1)*d], want) {
							t.Fatalf("%s: object %d projected to %v, want %v", what, i, got[i*d:(i+1)*d], want)
						}
					}
				}
			}
		})
	}
}
