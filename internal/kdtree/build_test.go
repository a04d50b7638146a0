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

// oracleBuild is the builder Arena.build replaced, kept as its
// independent reference: a full sort of the points at every level, the
// cut walked outward from the median over the sorted values, boxes
// recomputed bottom-up from buckets. It shares nothing with the
// selection build but the arena's layout and setRouting.
func (a *Arena) oracleBuild(idx int32, pts []Point) {
	lo, hi := BoxOf(pts)
	d, spread := 0, 0.0
	for k := range lo {
		if hi[k]-lo[k] > spread {
			d, spread = k, hi[k]-lo[k]
		}
	}
	if len(pts) <= a.BucketSize || spread == 0 {
		n := &a.Nodes[idx]
		*n = Node{Leaf: true}
		for _, p := range pts {
			n.Slots = append(n.Slots, a.addPoint(p))
		}
		if lo != nil {
			blo, bhi := a.box(idx)
			copy(blo, lo)
			copy(bhi, hi)
		}
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

// bucketOrder is slotOrder on points.
func bucketOrder(p, q Point) int {
	if c := cmp.Compare(p.ID, q.ID); c != 0 {
		return c
	}
	return slices.Compare(p.Coords, q.Coords)
}

// nodeView is node i of an arena as its contents: the node without its
// slots, the points they index and its box.
type nodeView struct {
	Node
	Bucket []Point
	Lo, Hi []float64
}

func viewNode(a *Arena, i int) nodeView {
	v := nodeView{Node: a.Nodes[i], Bucket: a.AppendBucket(nil, int32(i))}
	v.Slots = nil
	v.Lo, v.Hi = a.Box(int32(i))
	return v
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
					g, w := viewNode(&got.Arena, i), viewNode(&want.Arena, i)
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
// builds the same arena, bucket order and point blocks included — also when points tie
// on every coordinate, and when IDs repeat and the coordinates have to
// break the tie.
func TestBuildIsFunctionOfPointSet(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for _, shape := range buildShapes {
		pts := shape.gen(r, 3000, 4)
		for i := range pts {
			pts[i].ID /= 2
		}
		var first Arena
		for order := 0; order < 8; order++ {
			tr, err := BulkLoad(shuffled(r, pts), 4, 8)
			if err != nil {
				t.Fatal(err)
			}
			if order == 0 {
				first = tr.Arena
			} else if !reflect.DeepEqual(tr.Arena, first) {
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
	a, slots := arenaOf(make([]Point, n), 1)
	for i := range a.Coords {
		a.Coords[i], a.IDs[i] = gas, uint64(i)
	}
	next := 0.0
	freeze := func(s int32) {
		if a.Coords[s] == gas {
			a.Coords[s] = next
			next++
		}
	}
	for lo := 0; n-lo > sortBelow; {
		w := slots[lo:]
		x, y, z := w[0], w[len(w)/2], w[len(w)-1]
		freeze(x)
		freeze(y)
		freeze(z)
		_, gt := a.partition3(w, 0, medianOfThree(a.Coords[x], a.Coords[y], a.Coords[z]))
		lo += gt
	}
	for _, s := range slots {
		freeze(s)
	}
	// Every point where it started: that arrangement is the input.
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Coords: []float64{a.Coords[i]}, ID: uint64(i)}
	}
	return pts
}

// arenaOf copies pts into a fresh arena's blocks and returns it with
// their slots, in input order.
func arenaOf(pts []Point, dim int) (*Arena, []int32) {
	a := &Arena{Dim: dim}
	slots := make([]int32, len(pts))
	for i, p := range pts {
		if p.Coords == nil {
			p.Coords = make([]float64, dim)
		}
		slots[i] = a.addPoint(p)
	}
	return a, slots
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
		a, in := arenaOf(in, 1)
		sorted := slices.Clone(a.Coords)
		slices.Sort(sorted)
		for _, k := range []int{0, 1, n / 2, (n - 1) / 2, n - 2, n - 1} {
			if lo, hi, tied := a.narrow(slices.Clone(in), 0, k); !tied && hi-lo > sortBelow {
				fallbacks++
			}
			slots := slices.Clone(in)
			start, end := a.selectNth(slots, 0, k)
			if start > k || k >= end {
				t.Fatalf("%s k=%d: run [%d, %d) does not hold k", name, k, start, end)
			}
			for i, s := range slots {
				v := a.coord(s, 0)
				if ok := (i < start && v < sorted[k]) || (i >= end && v > sorted[k]) || (start <= i && i < end && v == sorted[k]); !ok {
					t.Fatalf("%s k=%d: slot %d at %d = %g breaks the partition around %g in [%d, %d)", name, k, s, i, v, sorted[k], start, end)
				}
			}
			slices.Sort(slots)
			if !slices.Equal(slots, in) {
				t.Fatalf("%s k=%d: selectNth lost or duplicated a slot", name, k)
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no input spent narrow's depth budget: the sort fallback went untested")
	}
}

// TestBuildAllocs: a build allocates its blocks — points, slots,
// nodes and boxes — and their growth, and nothing per node, per level
// or per point.
func TestBuildAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("100k-point build; counted without the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // goroutine start-up is not what is counted
	pts := clusteredPoints(rand.New(rand.NewSource(34)), 100_000, 8)
	var tr *Tree
	allocs := testing.AllocsPerRun(1, func() { tr, _ = BulkLoad(pts, 8, 16) })
	t.Logf("100k build: %.0f allocations for %d nodes", allocs, len(tr.Nodes))
	if allocs > 128 {
		t.Fatalf("100k build: %.0f allocations for %d nodes, want at most 128", allocs, len(tr.Nodes))
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BulkLoad(pts, 8, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
