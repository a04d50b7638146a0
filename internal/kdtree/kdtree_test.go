package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randomPoints(r *rand.Rand, n, dim int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		c := make([]float64, dim)
		for d := range c {
			c[d] = r.Float64() * 100
		}
		pts[i] = Point{Coords: c, ID: uint64(i)}
	}
	return pts
}

// clusteredPoints produces points with heavy duplication to stress the
// split logic (requirement corpora repeat triples heavily).
func clusteredPoints(r *rand.Rand, n, dim int) []Point {
	centers := randomPoints(r, 1+n/10, dim)
	pts := make([]Point, n)
	for i := range pts {
		center := centers[r.Intn(len(centers))]
		c := append([]float64(nil), center.Coords...)
		if r.Intn(3) == 0 { // 1/3 exact duplicates
			for d := range c {
				c[d] += r.NormFloat64() * 0.01
			}
		}
		pts[i] = Point{Coords: c, ID: uint64(i)}
	}
	return pts
}

// euclidean is the oracle's own distance: sqrt applied per candidate.
func euclidean(q, p []float64) float64 { return math.Sqrt(EuclideanSq(q, p)) }

func bruteKNN(pts []Point, q []float64, k int) []Neighbor {
	all := make([]Neighbor, len(pts))
	for i, p := range pts {
		all[i] = Neighbor{Point: p, Dist: euclidean(q, p.Coords)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Point.ID < all[j].Point.ID
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func bruteRange(pts []Point, q []float64, d float64) []Neighbor {
	var out []Neighbor
	for _, p := range pts {
		if dist := euclidean(q, p.Coords); dist <= d {
			out = append(out, Neighbor{Point: p, Dist: dist})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Point.ID < out[j].Point.ID
	})
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Fatal("dim 0 accepted")
	}
	tr, err := New(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.BucketSize != DefaultBucketSize {
		t.Fatalf("default bucket = %d", tr.BucketSize)
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	tr, _ := New(3, 4)
	if err := tr.Insert(Point{Coords: []float64{1, 2}}); err == nil {
		t.Fatal("wrong dimensionality accepted")
	}
}

func TestInsertAndInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr, _ := New(4, 8)
	pts := randomPoints(r, 500, 4)
	for i, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got := len(tr.Points()); got != 500 {
		t.Fatalf("Points() returned %d", got)
	}
}

func TestInsertDuplicateHeavy(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tr, _ := New(3, 4)
	pts := clusteredPoints(r, 300, 3)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check after duplicate-heavy inserts: %v", err)
	}
}

func TestAllIdenticalPointsOversizedBucket(t *testing.T) {
	tr, _ := New(2, 4)
	for i := 0; i < 20; i++ {
		if err := tr.Insert(Point{Coords: []float64{1, 1}, ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if tr.Height() != 1 {
		t.Fatalf("identical points should stay in one oversized leaf, height=%d", tr.Height())
	}
	got := tr.KNearest([]float64{1, 1}, 5)
	if len(got) != 5 || got[0].Dist != 0 {
		t.Fatalf("KNearest on identical points: %v", got)
	}
}

func TestBulkLoadBalanced(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randomPoints(r, 4096, 4)
	tr, err := BulkLoad(pts, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// 4096/16 = 256 leaves → perfectly balanced height 9; allow slack.
	maxH := int(math.Ceil(math.Log2(4096.0/16.0))) + 3
	if h := tr.Height(); h > maxH {
		t.Fatalf("bulk-loaded height %d exceeds %d", h, maxH)
	}
}

func TestBulkLoadValidation(t *testing.T) {
	if _, err := BulkLoad([]Point{{Coords: []float64{1}}}, 2, 4); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestBuildChainDegenerateHeight(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randomPoints(r, 640, 3)
	tr, err := BuildChain(pts, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// 640/16 = 40 buckets → height ~40.
	if h := tr.Height(); h < 30 {
		t.Fatalf("chain height %d, want ~40 (degenerate)", h)
	}
	if tr.Len() != 640 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestChainVsBalancedSearchEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := randomPoints(r, 500, 3)
	balanced, _ := BulkLoad(append([]Point(nil), pts...), 3, 8)
	chain, _ := BuildChain(append([]Point(nil), pts...), 3, 8)
	for q := 0; q < 30; q++ {
		query := []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		a := balanced.KNearest(query, 7)
		b := chain.KNearest(query, 7)
		if !sameDistances(a, b) {
			t.Fatalf("balanced and chain disagree for %v:\n%v\n%v", query, a, b)
		}
	}
}

func TestKNearestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(400)
		dim := 1 + r.Intn(5)
		bucket := 1 + r.Intn(20)
		pts := clusteredPoints(r, n, dim)
		tr, err := BulkLoad(append([]Point(nil), pts...), dim, bucket)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			query := make([]float64, dim)
			for d := range query {
				query[d] = r.Float64() * 100
			}
			k := 1 + r.Intn(12)
			got := tr.KNearest(query, k)
			want := bruteKNN(pts, query, k)
			if !sameDistances(got, want) {
				t.Fatalf("trial %d: KNN mismatch (n=%d dim=%d k=%d)\ngot  %v\nwant %v",
					trial, n, dim, k, got, want)
			}
		}
	}
}

func TestKNearestAfterIncrementalInserts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dim := 3
	tr, _ := New(dim, 8)
	var pts []Point
	for i := 0; i < 600; i++ {
		p := Point{Coords: []float64{r.Float64() * 10, r.Float64() * 10, r.Float64() * 10}, ID: uint64(i)}
		pts = append(pts, p)
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			query := []float64{r.Float64() * 10, r.Float64() * 10, r.Float64() * 10}
			if got, want := tr.KNearest(query, 5), bruteKNN(pts, query, 5); !sameDistances(got, want) {
				t.Fatalf("after %d inserts: KNN mismatch", i+1)
			}
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(400)
		dim := 1 + r.Intn(5)
		pts := clusteredPoints(r, n, dim)
		tr, err := BulkLoad(append([]Point(nil), pts...), dim, 8)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			query := make([]float64, dim)
			for d := range query {
				query[d] = r.Float64() * 100
			}
			d := r.Float64() * 30
			got := tr.RangeSearch(query, d)
			want := bruteRange(pts, query, d)
			if !sameNeighborSets(got, want) {
				t.Fatalf("trial %d: range mismatch (n=%d dim=%d d=%f): got %d, want %d",
					trial, n, dim, d, len(got), len(want))
			}
		}
	}
}

func TestRangeExactBoundaryIncluded(t *testing.T) {
	tr, _ := New(1, 1)
	for i, x := range []float64{0, 1, 2, 3} {
		if err := tr.Insert(Point{Coords: []float64{x}, ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.RangeSearch([]float64{0}, 2)
	if len(got) != 3 {
		t.Fatalf("range [0,2] returned %d points, want 3 (boundary point at exactly d)", len(got))
	}
}

func TestKNearestEdgeCases(t *testing.T) {
	tr, _ := New(2, 4)
	if got := tr.KNearest([]float64{0, 0}, 3); got != nil {
		t.Fatalf("empty tree KNN = %v", got)
	}
	if err := tr.Insert(Point{Coords: []float64{1, 1}, ID: 7}); err != nil {
		t.Fatal(err)
	}
	if got := tr.KNearest([]float64{0, 0}, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	got := tr.KNearest([]float64{0, 0}, 10)
	if len(got) != 1 || got[0].Point.ID != 7 {
		t.Fatalf("k>size = %v", got)
	}
	if got := tr.RangeSearch([]float64{0, 0}, -1); got != nil {
		t.Fatalf("negative range returned %v", got)
	}
}

func TestStatsPruning(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := randomPoints(r, 2000, 3)
	tr, _ := BulkLoad(pts, 3, 16)
	var s Stats
	tr.KNearestWithStats([]float64{50, 50, 50}, 3, &s)
	if s.NodesVisited == 0 || s.LeavesVisited == 0 || s.PointsScanned == 0 {
		t.Fatalf("stats not recorded: %+v", s)
	}
	if s.PointsScanned >= 2000 {
		t.Fatalf("no pruning: scanned %d of 2000", s.PointsScanned)
	}
}

func TestChainScansMoreThanBalanced(t *testing.T) {
	// The premise of Figures 4 and 6: a chain tree does far more work.
	r := rand.New(rand.NewSource(10))
	pts := randomPoints(r, 2000, 3)
	balanced, _ := BulkLoad(append([]Point(nil), pts...), 3, 16)
	chain, _ := BuildChain(append([]Point(nil), pts...), 3, 16)
	var sb, sc Stats
	q := []float64{50, 50, 50}
	balanced.KNearestWithStats(q, 3, &sb)
	chain.KNearestWithStats(q, 3, &sc)
	if sc.NodesVisited <= sb.NodesVisited {
		t.Fatalf("chain visited %d nodes, balanced %d — expected chain to be worse",
			sc.NodesVisited, sb.NodesVisited)
	}
}

func sameDistances(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

func sameNeighborSets(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	ids := map[uint64]bool{}
	for _, n := range a {
		ids[n.Point.ID] = true
	}
	for _, n := range b {
		if !ids[n.Point.ID] {
			return false
		}
	}
	return true
}

func BenchmarkInsert(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := randomPoints(r, b.N, 8)
	tr, _ := New(8, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(pts[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNearestBalanced(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	pts := randomPoints(r, 100_000, 8)
	tr, _ := BulkLoad(pts, 8, 16)
	q := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := range q {
			q[d] = r.Float64() * 100
		}
		tr.KNearest(q, 3)
	}
}
