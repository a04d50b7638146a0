package kdtree

import (
	"math"
	"math/rand"
	"testing"
)

func TestBoxMinSq(t *testing.T) {
	lo := []float64{0, 0}
	hi := []float64{1, 2}
	cases := []struct {
		q    []float64
		want float64
	}{
		{[]float64{0.5, 1}, 0},     // inside
		{[]float64{0, 2}, 0},       // on the corner
		{[]float64{2, 1}, 1},       // beyond hi on one dim
		{[]float64{-3, 1}, 9},      // beyond lo on one dim
		{[]float64{2, 4}, 1 + 4},   // beyond on both dims
		{[]float64{-1, -1}, 1 + 1}, // below on both dims
	}
	for _, c := range cases {
		if got := BoxMinSq(c.q, lo, hi); got != c.want {
			t.Errorf("BoxMinSq(%v) = %g, want %g", c.q, got, c.want)
		}
	}
}

// TestBoxMinSqBits: the branch-free kernel sums, bit for bit, what one
// branch per dimension sums — on random boxes, on queries sitting on a
// face, and on the empty box.
func TestBoxMinSqBits(t *testing.T) {
	branchy := func(q, lo, hi []float64) float64 {
		s := 0.0
		for i, v := range q {
			if v < lo[i] {
				s += (lo[i] - v) * (lo[i] - v)
			} else if v > hi[i] {
				s += (v - hi[i]) * (v - hi[i])
			}
		}
		return s
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		dim := 1 + r.Intn(8)
		q, lo, hi := make([]float64, dim), make([]float64, dim), make([]float64, dim)
		for d := range q {
			a, b := r.NormFloat64()*10, r.NormFloat64()*10
			lo[d], hi[d] = min(a, b), max(a, b)
			switch r.Intn(4) {
			case 0:
				q[d] = lo[d]
			case 1:
				q[d] = hi[d]
			default:
				q[d] = r.NormFloat64() * 10
			}
		}
		if trial%50 == 0 {
			emptyBox(lo, hi)
		}
		want := branchy(q, lo, hi)
		if got := BoxMinSq(q, lo, hi); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: BoxMinSq(%v, %v, %v) = %v, want %v", trial, q, lo, hi, got, want)
		}
	}
}

func TestBoxOfEmpty(t *testing.T) {
	lo, hi := BoxOf(nil)
	if lo != nil || hi != nil {
		t.Fatalf("BoxOf(nil) = %v, %v; want nil boxes", lo, hi)
	}
}

// TestBoxesStayExact drives inserts and bulk loads through random
// workloads and asserts the region invariant (exact per-dimension
// bounds at every node) plus the guard's safety: the box min-distance
// never exceeds the true distance to any point in the subtree.
func TestBoxesStayExact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	mkPts := func(n, dim int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			c := make([]float64, dim)
			for d := range c {
				c[d] = r.Float64() * 10
			}
			pts[i] = Point{Coords: c, ID: uint64(i)}
		}
		return pts
	}
	for _, dim := range []int{1, 3, 8} {
		pts := mkPts(500, dim)
		ins, err := New(dim, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if err := ins.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := ins.Check(); err != nil {
			t.Fatalf("dim %d insert-built: %v", dim, err)
		}
		bulk, err := BulkLoad(mkPts(500, dim), dim, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := bulk.Check(); err != nil {
			t.Fatalf("dim %d bulk-loaded: %v", dim, err)
		}
		chain, err := BuildChain(mkPts(300, dim), dim, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := chain.Check(); err != nil {
			t.Fatalf("dim %d chain-built: %v", dim, err)
		}
		// Guard safety on the root box: min-distance lower-bounds the
		// true distance to every indexed point.
		q := mkPts(1, dim)[0].Coords
		lo, hi := ins.Box(0)
		minSq := BoxMinSq(q, lo, hi)
		for _, p := range ins.Points() {
			if d := EuclideanSq(q, p.Coords); d < minSq {
				t.Fatalf("dim %d: point %d at %g inside the box bound %g", dim, p.ID, d, minSq)
			}
		}
	}
}

// TestCheckDetectsCorruption: a deliberately loosened and a
// deliberately tightened box must both fail Check — exactness is
// the invariant, not mere containment.
func TestCheckDetectsCorruption(t *testing.T) {
	tr, err := BulkLoad([]Point{
		{Coords: []float64{0, 0}, ID: 1},
		{Coords: []float64{1, 1}, ID: 2},
		{Coords: []float64{2, 0}, ID: 3},
	}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("fresh tree: %v", err)
	}
	_, hi := tr.Box(0)
	saved := hi[0]
	hi[0] = saved + 1 // looser than the data
	if err := tr.Check(); err == nil {
		t.Fatal("loosened box passed Check")
	}
	hi[0] = saved - 1 // tighter than the data: prunes live points
	if err := tr.Check(); err == nil {
		t.Fatal("tightened box passed Check")
	}
	hi[0] = saved
	if err := tr.Check(); err != nil {
		t.Fatalf("restored tree: %v", err)
	}
}
