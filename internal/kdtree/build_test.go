package kdtree

import (
	"cmp"
	"fmt"
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

// TestGraftMatchesBulkLoad: a graft that overflows a leaf builds over
// the bucket and the grafted points the subtree BulkLoad builds over
// them — node for node, boxes and bucket contents — at sizes straddling
// the bucket size and the parallel threshold. Its rows are scratch
// copies carrying slots, so every leaf slot still names its point in
// the arena's blocks.
func TestGraftMatchesBulkLoad(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	const bs, dim = 8, 3
	for _, shape := range buildShapes {
		for _, n := range []int{bs, bs + 1, 1000, parallelBuild + 100} {
			name := fmt.Sprintf("%s/n%d", shape.name, n)
			pts := shape.gen(r, n, dim)
			got, _ := New(dim, bs)
			for _, batch := range [][]Point{pts[:bs/2], pts[bs/2:]} { // a bucket, then the rest merged into it
				for _, p := range batch {
					got.ExpandPath([]int32{0}, p.Coords)
				}
				got.Graft(0, batch)
			}
			got.size = n
			if err := got.Check(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := BulkLoad(pts, dim, bs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Nodes) != len(want.Nodes) {
				t.Fatalf("%s: %d nodes, BulkLoad built %d", name, len(got.Nodes), len(want.Nodes))
			}
			for i := range got.Nodes {
				if g, w := viewNode(&got.Arena, i), viewNode(&want.Arena, i); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: node %d:\n got %+v\nwant %+v", name, i, g, w)
				}
			}
		}
	}
}

// medianOfThreeKiller builds, against narrow's own pivot rule, an input
// of n distinct keys on which every round's median of three is one of
// the smallest keys of its window, so selecting the maximum sheds two
// or three keys a round. Keys are decided lazily (McIlroy's adversary):
// an undecided one is gas, larger than any pivot, and the three a round
// samples take the next smallest values unused so far. Gas is
// gas+i for the key that started at i, so the keys carry where they
// started as the rounds move them, and no two compare equal.
func medianOfThreeKiller(n int) []float64 {
	const gas = 1 << 40
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = gas + float64(i)
	}
	in := make([]float64, n) // the decided value of the key that started at i
	next := 0.0
	freeze := func(j int) {
		if keys[j] >= gas {
			in[int(keys[j]-gas)] = next
			keys[j] = next
			next++
		}
	}
	for lo := 0; n-lo > sortBelow; {
		w := keys[lo:]
		freeze(lo)
		freeze(lo + len(w)/2)
		freeze(n - 1)
		m := partition(w, pivot(w)) - 1
		w[0], w[m] = w[m], w[0]
		lo += m + 1
	}
	for j := range keys {
		freeze(j)
	}
	return in
}

// TestSelectNth: on the classic hard inputs selectNth leaves the value
// of rank k at k, no larger value before it and no smaller one after;
// cuts bounds the run tied with it at [start, end) around k, only
// smaller values before that run and only larger ones after; the keys
// are a permutation of the input; and the median-of-three killer
// drives narrow into the depth-limit fallback.
func TestSelectNth(t *testing.T) {
	const n = 2000
	fill := func(v func(i int) float64) []float64 {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = v(i)
		}
		return keys
	}
	inputs := map[string][]float64{
		"sorted":     fill(func(i int) float64 { return float64(i) }),
		"reversed":   fill(func(i int) float64 { return float64(n - i) }),
		"organ-pipe": fill(func(i int) float64 { return float64(min(i, n-1-i)) }),
		"all-equal":  fill(func(int) float64 { return 7 }),
		"few-values": fill(func(i int) float64 { return float64(i * 7919 % 5) }),
		"killer":     medianOfThreeKiller(n),
	}
	fallbacks := 0
	for name, in := range inputs {
		sorted := slices.Clone(in)
		slices.Sort(sorted)
		for _, k := range []int{0, 1, n / 2, (n - 1) / 2, n - 2, n - 1} {
			if lo, hi, done := narrow(slices.Clone(in), k); !done && hi-lo > sortBelow {
				fallbacks++
			}
			keys := slices.Clone(in)
			selectNth(keys, k)
			v := keys[k]
			if v != sorted[k] {
				t.Fatalf("%s k=%d: %g at k, rank k is %g", name, k, v, sorted[k])
			}
			for i, x := range keys {
				if (i < k && x > v) || (i > k && x < v) {
					t.Fatalf("%s k=%d: %g at %d breaks the partition around %g", name, k, x, i, v)
				}
			}
			start, end := cuts(keys, v)
			if start > k || k >= end {
				t.Fatalf("%s k=%d: run [%d, %d) does not hold k", name, k, start, end)
			}
			for i, x := range sorted {
				if ok := (i < start && x < v) || (i >= end && x > v) || (start <= i && i < end && x == v); !ok {
					t.Fatalf("%s k=%d: rank %d = %g lies on the wrong side of the run [%d, %d) of %g", name, k, i, x, start, end, v)
				}
			}
			slices.Sort(keys)
			if !slices.Equal(keys, sorted) {
				t.Fatalf("%s k=%d: selectNth lost or duplicated a key", name, k)
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
