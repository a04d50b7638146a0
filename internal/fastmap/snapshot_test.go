package fastmap

import (
	"math"
	"math/rand"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	pts := euclideanPoints(r, 80, 3)
	dist := func(a, b []float64) float64 { return Euclidean(a, b) }
	m, _, err := Build(pts, dist, Options{Dims: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromSnapshot(m.Snapshot(), dist)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	for q := 0; q < 40; q++ {
		query := []float64{r.Float64() * 10, r.Float64() * 10, r.Float64() * 10}
		a, b := m.Map(query), back.Map(query)
		for d := range a {
			if a[d] != b[d] {
				t.Fatalf("restored mapper diverged at query %d dim %d: %v vs %v", q, d, a, b)
			}
		}
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	dist := func(a, b int) float64 { return 0 }
	cases := map[string]Snapshot[int]{
		"zero dims":      {Dims: 0},
		"short pivots":   {Dims: 3, PivotA: make([]int, 2), PivotB: make([]int, 3), CoordsA: make([][]float64, 3), CoordsB: make([][]float64, 3), DAB: make([]float64, 3)},
		"negative dAB":   {Dims: 1, PivotA: make([]int, 1), PivotB: make([]int, 1), CoordsA: [][]float64{{0}}, CoordsB: [][]float64{{0}}, DAB: []float64{-1}},
		"coords too few": {Dims: 2, PivotA: make([]int, 2), PivotB: make([]int, 2), CoordsA: [][]float64{{0}, {0}}, CoordsB: [][]float64{{0, 0}, {0, 0}}, DAB: []float64{1, 1}},
		"NaN dAB":        {Dims: 1, PivotA: make([]int, 1), PivotB: make([]int, 1), CoordsA: [][]float64{{0}}, CoordsB: [][]float64{{1}}, DAB: []float64{math.NaN()}},
		"+Inf dAB":       {Dims: 1, PivotA: make([]int, 1), PivotB: make([]int, 1), CoordsA: [][]float64{{0}}, CoordsB: [][]float64{{1}}, DAB: []float64{math.Inf(1)}},
		"-Inf coord":     {Dims: 1, PivotA: make([]int, 1), PivotB: make([]int, 1), CoordsA: [][]float64{{math.Inf(-1)}}, CoordsB: [][]float64{{1}}, DAB: []float64{1}},
		"NaN coord":      {Dims: 1, PivotA: make([]int, 1), PivotB: make([]int, 1), CoordsA: [][]float64{{0}}, CoordsB: [][]float64{{math.NaN()}}, DAB: []float64{1}},
	}
	for name, s := range cases {
		if _, err := FromSnapshot(s, dist); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := FromSnapshot(Snapshot[int]{Dims: 1, PivotA: make([]int, 1), PivotB: make([]int, 1), CoordsA: [][]float64{{0}}, CoordsB: [][]float64{{0}}, DAB: []float64{0}}, nil); err == nil {
		t.Error("nil dist accepted")
	}
}
