package kdtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// oracleBuild is the builder Arena.Build replaced, kept as its
// independent reference: a full sort of the slice at every level, the
// cut walked outward from the median over the sorted values, boxes
// recomputed bottom-up from buckets. It shares nothing with the
// selection build but the Node type.
func (a *Arena) oracleBuild(idx int32, pts []Point) {
	leaf := func() {
		n := &a.Nodes[idx]
		*n = Node{Leaf: true, Bucket: append([]Point(nil), pts...)}
		n.Lo, n.Hi = BoxOf(n.Bucket)
	}
	if len(pts) <= a.BucketSize {
		leaf()
		return
	}
	d, _, _, ok := widestDimension(pts, a.Dim)
	if !ok {
		leaf()
		return
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Coords[d] < pts[j].Coords[d] })
	mid := len(pts) / 2
	cutUp := mid
	for cutUp < len(pts) && pts[cutUp].Coords[d] == pts[cutUp-1].Coords[d] {
		cutUp++
	}
	cutDown := mid
	for cutDown > 0 && pts[cutDown].Coords[d] == pts[cutDown-1].Coords[d] {
		cutDown--
	}
	cut := cutUp
	if cutUp == len(pts) || (cutDown > 0 && mid-cutDown < cutUp-mid) {
		cut = cutDown
	}
	splitVal := pts[cut-1].Coords[d]
	li := a.add(Node{})
	a.oracleBuild(li, pts[:cut])
	ri := a.add(Node{})
	a.oracleBuild(ri, pts[cut:])
	a.setRouting(idx, d, splitVal, li, ri)
}

// buildShapes are the point-set generators of the build tests: the
// coordinate patterns the cut rule has to get right (ties at the
// median, runs reaching either end, dimensions with no spread).
var buildShapes = []struct {
	name string
	gen  func(r *rand.Rand, n, dim int) []Point
}{
	{"uniform", randomPoints},
	{"clustered", clusteredPoints},
	{"two-valued", func(r *rand.Rand, n, dim int) []Point {
		return gridPoints(r, n, dim, func(int) int { return 2 })
	}},
	{"heavy-duplicate", func(r *rand.Rand, n, dim int) []Point {
		return gridPoints(r, n, dim, func(int) int { return 5 })
	}},
	{"constant-dims", func(r *rand.Rand, n, dim int) []Point {
		return gridPoints(r, n, dim, func(d int) int { return 1 + (d%2)*1000 })
	}},
	{"identical", func(r *rand.Rand, n, dim int) []Point {
		return gridPoints(r, n, dim, func(int) int { return 1 })
	}},
}

// gridPoints draws every coordinate of dimension d from levels(d)
// distinct values.
func gridPoints(r *rand.Rand, n, dim int, levels func(d int) int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		c := make([]float64, dim)
		for d := range c {
			c[d] = float64(r.Intn(levels(d))) / 4
		}
		pts[i] = Point{Coords: c, ID: uint64(i)}
	}
	return pts
}

func shuffled(r *rand.Rand, pts []Point) []Point {
	out := slices.Clone(pts)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestBuildMatchesSortOracle: on every shape, at sizes straddling the
// bucket size and the parallel threshold, the selection build and the
// sort-based oracle produce the same arena node for node — split
// dimension, split value, child refs, node order, boxes — and leaves
// holding the same point sets; only the order inside a bucket differs,
// and it is bucketOrder.
func TestBuildMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const bs = 8
	sizes := []int{0, 1, bs - 1, bs, bs + 1, 2*bs + 1, 100, 1000, parallelBuild - 1, parallelBuild, 3 * parallelBuild}
	for _, shape := range buildShapes {
		for _, dim := range []int{1, 3, 8} {
			for _, n := range sizes {
				if testing.Short() && n > 1000 {
					continue
				}
				name := fmt.Sprintf("%s/dim%d/n%d", shape.name, dim, n)
				pts := shape.gen(r, n, dim)
				want, _ := New(dim, bs)
				want.oracleBuild(0, slices.Clone(pts))
				got, err := BulkLoad(slices.Clone(pts), dim, bs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := got.Check(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got.Nodes) != len(want.Nodes) {
					t.Fatalf("%s: %d nodes, oracle has %d", name, len(got.Nodes), len(want.Nodes))
				}
				for i := range got.Nodes {
					g, w := got.Nodes[i], want.Nodes[i]
					if !slices.IsSortedFunc(g.Bucket, bucketOrder) {
						t.Fatalf("%s: node %d: bucket not in bucketOrder", name, i)
					}
					slices.SortFunc(w.Bucket, bucketOrder)
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("%s: node %d:\n got %+v\nwant %+v", name, i, g, w)
					}
				}
			}
		}
	}
}

// TestBuildIsFunctionOfPointSet: the same set in eight shuffled orders
// builds the same arena, bucket order included — also when points tie
// on every coordinate, and when IDs repeat and the coordinates have to
// break the tie.
func TestBuildIsFunctionOfPointSet(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for _, shape := range buildShapes {
		pts := shape.gen(r, 3000, 4)
		for i := range pts {
			pts[i].ID /= 2
		}
		var first []Node
		for order := 0; order < 8; order++ {
			tr, err := BulkLoad(shuffled(r, pts), 4, 8)
			if err != nil {
				t.Fatal(err)
			}
			if order == 0 {
				first = tr.Nodes
			} else if !reflect.DeepEqual(tr.Nodes, first) {
				t.Fatalf("%s: shuffle %d built a different arena", shape.name, order)
			}
		}
	}
}

// TestBuildIndependentOfGOMAXPROCS: with one, two and eight builders
// allowed the arena is the same, node for node. Run under -race: this
// is the one place the package starts goroutines.
func TestBuildIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(33))
	for _, shape := range buildShapes {
		pts := shape.gen(r, 5*parallelBuild, 8)
		var first []Node
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			tr, err := BulkLoad(slices.Clone(pts), 8, 16)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("%s: GOMAXPROCS=%d: %v", shape.name, procs, err)
			}
			if first == nil {
				first = tr.Nodes
			} else if !reflect.DeepEqual(tr.Nodes, first) {
				t.Fatalf("%s: GOMAXPROCS=%d built a different arena than GOMAXPROCS=1", shape.name, procs)
			}
		}
	}
}

// medianOfThreeKiller builds, against narrow's own pivot rule, an input
// of n distinct values on which every round's median of three is one of
// the smallest values of its window, so selecting the maximum sheds two
// or three points a round. Values are decided lazily (McIlroy's
// adversary): undecided ones are +Inf, larger than any pivot, and the
// three a round samples take the next smallest values unused so far.
func medianOfThreeKiller(n int) []Point {
	gas := math.Inf(1)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Coords: []float64{gas}, ID: uint64(i)}
	}
	next := 0.0
	freeze := func(p Point) {
		if p.Coords[0] == gas {
			p.Coords[0] = next
			next++
		}
	}
	for lo := 0; n-lo > sortBelow; {
		w := pts[lo:]
		a, b, c := w[0], w[len(w)/2], w[len(w)-1]
		freeze(a)
		freeze(b)
		freeze(c)
		_, gt := partition3(w, 0, medianOfThree(a.Coords[0], b.Coords[0], c.Coords[0]))
		lo += gt
	}
	for _, p := range pts {
		freeze(p)
	}
	// Every point back where it started: that arrangement is the input.
	slices.SortFunc(pts, func(p, q Point) int { return cmp.Compare(p.ID, q.ID) })
	return pts
}

// TestSelectNth: on the classic hard inputs selectNth leaves the value
// of rank k in a run [start, end) around k with only smaller values
// before it and only larger ones after, and the median-of-three killer
// drives it into the depth-limit fallback.
func TestSelectNth(t *testing.T) {
	const n = 2000
	fill := func(v func(i int) float64) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Coords: []float64{v(i)}, ID: uint64(i)}
		}
		return pts
	}
	inputs := map[string][]Point{
		"sorted":     fill(func(i int) float64 { return float64(i) }),
		"reversed":   fill(func(i int) float64 { return float64(n - i) }),
		"organ-pipe": fill(func(i int) float64 { return float64(min(i, n-1-i)) }),
		"all-equal":  fill(func(int) float64 { return 7 }),
		"few-values": fill(func(i int) float64 { return float64(i * 7919 % 5) }),
		"killer":     medianOfThreeKiller(n),
	}
	fallbacks := 0
	for name, in := range inputs {
		sorted := make([]float64, n)
		for i, p := range in {
			sorted[i] = p.Coords[0]
		}
		slices.Sort(sorted)
		for _, k := range []int{0, 1, n / 2, (n - 1) / 2, n - 2, n - 1} {
			if lo, hi, tied := narrow(slices.Clone(in), 0, k); !tied && hi-lo > sortBelow {
				fallbacks++
			}
			pts := slices.Clone(in)
			start, end := selectNth(pts, 0, k)
			if start > k || k >= end {
				t.Fatalf("%s k=%d: run [%d, %d) does not hold k", name, k, start, end)
			}
			for i, p := range pts {
				v := p.Coords[0]
				if ok := (i < start && v < sorted[k]) || (i >= end && v > sorted[k]) || (start <= i && i < end && v == sorted[k]); !ok {
					t.Fatalf("%s k=%d: pts[%d] = %g breaks the partition around %g in [%d, %d)", name, k, i, v, sorted[k], start, end)
				}
			}
			slices.SortFunc(pts, func(p, q Point) int { return cmp.Compare(p.ID, q.ID) })
			if !reflect.DeepEqual(pts, in) {
				t.Fatalf("%s k=%d: selectNth lost or duplicated a point", name, k)
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no input spent narrow's depth budget: the sort fallback went untested")
	}
}

// TestBuildAllocs: a build allocates per node — a leaf's bucket and
// every node's two box sides — plus the arena's own growth, and nothing
// per level or per point.
func TestBuildAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-point build")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // goroutine start-up is not what is counted
	pts := clusteredPoints(rand.New(rand.NewSource(34)), 100_000, 8)
	work := make([]Point, len(pts))
	var tr *Tree
	allocs := testing.AllocsPerRun(1, func() {
		copy(work, pts)
		tr, _ = BulkLoad(work, 8, 16)
	})
	if limit := float64(3*len(tr.Nodes) + 64); allocs > limit {
		t.Fatalf("100k build: %.0f allocations for %d nodes, want at most %.0f", allocs, len(tr.Nodes), limit)
	}
}

// BenchmarkArenaBuild: the bulk build alone, on clustered 8-dimensional
// points with a third of them exact duplicates.
func BenchmarkArenaBuild(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1k", 1_000}, {"10k", 10_000}, {"100k", 100_000}} {
		b.Run(size.name, func(b *testing.B) {
			pts := clusteredPoints(rand.New(rand.NewSource(35)), size.n, 8)
			work := make([]Point, len(pts))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, pts)
				if _, err := BulkLoad(work, 8, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
