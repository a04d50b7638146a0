package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// tinyParams keep the smoke tests fast; the real sweeps run in
// cmd/semtree-bench.
func tinyParams() Params {
	return Params{
		Sizes:      []int{2000, 6000},
		Partitions: []int{1, 3},
		Queries:    25,
		Latency:    50 * time.Microsecond,
		Seed:       1,
	}
}

func TestFigureTableAndCSV(t *testing.T) {
	f := &Figure{
		ID: "figX", Title: "Test", XLabel: "n", YLabel: "y", YFmt: "%.1f",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{0.5, 1.5}},
			{Name: "b", X: []float64{2, 3}, Y: []float64{2.5, 3.5}},
		},
		Notes: []string{"hello"},
	}
	table := f.Table()
	for _, want := range []string{"FIGX", "a", "b", "0.5", "3.5", "note: hello"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, "n,a,b\n") {
		t.Errorf("csv header wrong:\n%s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 4 { // header + x∈{1,2,3}
		t.Errorf("csv rows = %d:\n%s", lines, csv)
	}
}

func TestRunnersRegistryComplete(t *testing.T) {
	ids := RunnerIDs()
	// Exactly the paper's evaluation: Figures 3–8, the §III-C complexity
	// model and the four ablations. Engine measurements live in
	// benchmark/ and are gated by core's and serve's tests.
	want := []string{"ablation-bucket", "ablation-dims", "ablation-measure",
		"ablation-weights", "complexity", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"}
	if len(ids) != len(want) {
		t.Fatalf("runner ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("runner ids = %v, want %v", ids, want)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	p := tinyParams()
	fig, err := Fig3(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 { // 1 balanced, 3 partitions, unbalanced
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 2 {
			t.Fatalf("series %q has %d points", s.Name, len(s.Y))
		}
		for _, y := range s.Y {
			if y <= 0 {
				t.Errorf("series %q has a non-positive build time: %v", s.Name, s.Y)
			}
		}
	}
	// The paper's shape — every curve grows with N and the unbalanced
	// chain is the worst at the larger size — asserted on the insert
	// descents' navigation steps per build rather than on the measured
	// handler time the rank clock runs on.
	p = p.withDefaults()
	data, err := makeSweep(maxSize(p.Sizes), 0, p.Dims, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	navSteps := func(prefix func(n int) []kdtree.Point, m int, unbalanced bool) []int64 {
		t.Helper()
		var out []int64
		for _, n := range p.Sizes {
			fabric := cluster.NewInProc(cluster.InProcOptions{})
			tr, err := buildDistributed(prefix(n), m, p, fabric, unbalanced)
			if err != nil {
				t.Fatal(err)
			}
			st, err := tr.Stats()
			tr.Close()
			fabric.Close()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, st.NavSteps)
		}
		return out
	}
	chain := navSteps(data.prefixChainWorkload, 1, true)
	for _, m := range p.Partitions {
		w := navSteps(data.prefix, m, false)
		if w[1] <= w[0] {
			t.Errorf("%d partitions: build work not growing with N: %v", m, w)
		}
		if chain[1] <= w[1] {
			t.Errorf("unbalanced build work (%d) not worse than %d partitions (%d)", chain[1], m, w[1])
		}
	}
	if chain[1] <= chain[0] {
		t.Errorf("unbalanced: build work not growing with N: %v", chain)
	}
}

// chainVsBalancedWork compares traversal work (nodes visited + points
// scanned) on chain vs balanced trees — a deterministic proxy for the
// wall-clock curves, immune to the load of parallel test packages.
func chainVsBalancedWork(t *testing.T, n int, run func(tr *kdtree.Tree, q []float64, st *kdtree.Stats)) (balanced, chain int) {
	t.Helper()
	data, err := makeSweep(n, 25, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := kdtree.BulkLoad(data.prefix(n), 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := kdtree.BuildChain(data.prefixChainWorkload(n), 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	var bs, cs kdtree.Stats
	for _, q := range data.queries {
		run(bt, q, &bs)
		run(ct, q, &cs)
	}
	return bs.NodesVisited + bs.PointsScanned, cs.NodesVisited + cs.PointsScanned
}

func TestFig4ChainWorse(t *testing.T) {
	fig, err := Fig4(context.Background(), tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// The paper's shape — chain k-NN costs more — asserted on
	// deterministic traversal work rather than wall time.
	balanced, chain := chainVsBalancedWork(t, 6000, func(tr *kdtree.Tree, q []float64, st *kdtree.Stats) {
		tr.KNearestWithStats(q, 3, st)
	})
	if chain <= balanced {
		t.Errorf("chain work (%d) not worse than balanced (%d)", chain, balanced)
	}
}

func TestFig5Runs(t *testing.T) {
	fig, err := Fig5(context.Background(), tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("non-positive query time in %q: %v", s.Name, s.Y)
			}
		}
	}
}

func TestFig6ChainWorse(t *testing.T) {
	if _, err := Fig6(context.Background(), tinyParams()); err != nil {
		t.Fatal(err)
	}
	// As in TestFig4ChainWorse: assert the paper's shape on
	// deterministic traversal work.
	balanced, chain := chainVsBalancedWork(t, 6000, func(tr *kdtree.Tree, q []float64, st *kdtree.Stats) {
		tr.RangeSearchWithStats(q, 0.2, st)
	})
	if chain <= balanced {
		t.Errorf("chain work (%d) not worse than balanced (%d)", chain, balanced)
	}
}

func TestFig7Runs(t *testing.T) {
	if _, err := Fig7(context.Background(), tinyParams()); err != nil {
		t.Fatal(err)
	}
}

func TestFig8Shape(t *testing.T) {
	fig, err := Fig8(context.Background(), tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	precision, recall := fig.Series[0], fig.Series[1]
	// Figure 8's shape: precision falls, recall rises with K.
	if precision.Y[0] < precision.Y[len(precision.Y)-1] {
		t.Errorf("precision not decreasing: %v", precision.Y)
	}
	if recall.Y[0] > recall.Y[len(recall.Y)-1] {
		t.Errorf("recall not increasing: %v", recall.Y)
	}
	if recall.Y[len(recall.Y)-1] < 0.6 {
		t.Errorf("recall@%d = %f, too low", int(recall.X[len(recall.X)-1]), recall.Y[len(recall.Y)-1])
	}
}

func TestComplexityTracksModel(t *testing.T) {
	fig, err := Complexity(context.Background(), tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	// measured M=1 vs model M=1: within a factor of ~2.5 (the model
	// ignores constant factors and half-full buckets).
	measured, model := fig.Series[0], fig.Series[1]
	for i := range measured.Y {
		ratio := measured.Y[i] / model.Y[i]
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("measured/model ratio %f at N=%v", ratio, measured.X[i])
		}
	}
}

func TestAblationDimsRecallImproves(t *testing.T) {
	fig, err := AblationDims(context.Background(), tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	stress, recall := fig.Series[0], fig.Series[1]
	if stress.Y[0] < stress.Y[len(stress.Y)-1] {
		t.Errorf("stress should shrink with dims: %v", stress.Y)
	}
	if recall.Y[len(recall.Y)-1] < recall.Y[0] {
		t.Errorf("recall should grow with dims: %v", recall.Y)
	}
}

func TestAblationBucketRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow ablation")
	}
	fig, err := AblationBucket(context.Background(), tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
}
