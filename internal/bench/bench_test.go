package bench

import (
	"context"
	"fmt"
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
	want := []string{"ablation-bucket", "ablation-dims", "ablation-measure",
		"ablation-weights", "churn", "complexity", "deadline", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"placement", "pruning", "quota", "scheduler", "serve", "throughput"}
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
	// handler time the virtual clock runs on.
	p = p.withDefaults()
	data, err := makeSweep(maxSize(p.Sizes), 0, p.Dims, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	navSteps := func(prefix func(n int) []kdtree.Point, m int, unbalanced bool) []int64 {
		t.Helper()
		var out []int64
		for _, n := range p.Sizes {
			fabric := cluster.NewVirtual(cluster.VirtualOptions{Latency: p.Latency})
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

func TestThroughputShape(t *testing.T) {
	fig, err := Throughput(context.Background(), tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 { // (loop, batch) per partition count
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 2 {
			t.Fatalf("series %q has %d points", s.Name, len(s.Y))
		}
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %q has non-positive throughput %f", s.Name, y)
			}
		}
	}
}

func TestDeadlineShape(t *testing.T) {
	fig, err := Deadline(context.Background(), tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 { // p50, p99, cut-off fraction
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 2 { // one point per partition count
			t.Fatalf("series %q has %d points", s.Name, len(s.X))
		}
	}
	cut := fig.Series[2]
	for i, f := range cut.Y {
		if f < 0 || f > 1 {
			t.Fatalf("cut-off fraction[%d] = %f", i, f)
		}
	}
}

func TestSchedulerShape(t *testing.T) {
	p := tinyParams()
	p.Partitions = []int{1, 5}
	p.Hops = []time.Duration{0, time.Millisecond}
	// The auto scheduler's hop estimator measures real time: when the
	// whole test suite runs in parallel, CPU contention can inflate the
	// zero-latency hop estimate until fan-out genuinely looks cheaper,
	// which flips the protocol choice this test pins down. A regression
	// in the scheduler itself reproduces on a quiet machine every time,
	// so retry the figure until the suite load drains (bounded by a
	// deadline, not a fixed count — sibling package binaries can hog
	// the CPU for many seconds) and only fail if no attempt shows the
	// CPU-bound acceptance shape.
	deadline := time.Now().Add(30 * time.Second)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if !time.Now().Before(deadline) {
				break
			}
			time.Sleep(2 * time.Second) // let transient suite load drain
		}
		fig, err := Scheduler(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Series) != 6 { // {seq, fan-out, auto} × {p50, evals}
			t.Fatalf("series = %d, want 6", len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.X) != len(p.Hops) {
				t.Fatalf("series %q has %d points, want %d", s.Name, len(s.X), len(p.Hops))
			}
		}
		// At zero hop latency the auto scheduler must settle on the
		// sequential protocol: mean DistanceEvals matching sequential's
		// on the shared query set (the CPU-bound acceptance shape). A
		// small tolerance absorbs the rare query where scheduling noise
		// in the hop estimate flips a single choice.
		seqEvals, fanEvals, autoEvals := fig.Series[3], fig.Series[4], fig.Series[5]
		lastErr = nil
		if autoEvals.Y[0] > seqEvals.Y[0]*1.05 {
			lastErr = fmt.Errorf("auto evals at 0 latency = %f, sequential = %f", autoEvals.Y[0], seqEvals.Y[0])
		} else if autoEvals.Y[0] >= fanEvals.Y[0] {
			lastErr = fmt.Errorf("auto evals at 0 latency = %f not below fan-out's %f", autoEvals.Y[0], fanEvals.Y[0])
		}
		if lastErr == nil {
			return
		}
		t.Logf("attempt %d: %v", attempt+1, lastErr)
	}
	t.Fatal(lastErr)
}

// TestQuotaShape: the quota figure must show the aggressor actually
// throttled (rejections happened, admitted QPS near the refill target
// by the last window) and a live victim. Bounds are loose — this is a
// smoke test on a tiny workload, the real sweep runs in
// cmd/semtree-bench — but the enforcement itself must be visible.
func TestQuotaShape(t *testing.T) {
	p := tinyParams()
	fig, err := Quota(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 {
		t.Fatalf("series = %d, want 5", len(fig.Series))
	}
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	admitted := byName["aggressor admitted qps"]
	rejected := byName["aggressor rejected qps"]
	target := byName["refill target qps"]
	vic := byName["victim p50 ms"]
	if len(admitted.Y) == 0 || len(target.Y) == 0 {
		t.Fatalf("missing series: %+v", fig.Series)
	}
	var shedTotal float64
	for _, y := range rejected.Y {
		shedTotal += y
	}
	if shedTotal == 0 {
		t.Fatalf("aggressor was never throttled:\n%s", fig.Table())
	}
	// Converged: by the last window the admitted rate sits near the
	// refill line, not at the unthrottled closed-loop rate.
	last := admitted.Y[len(admitted.Y)-1]
	want := target.Y[len(target.Y)-1]
	if last < want*0.2 || last > want*3 {
		t.Fatalf("last-window admitted qps %.1f not near refill target %.1f:\n%s", last, want, fig.Table())
	}
	for i, y := range vic.Y {
		if y <= 0 {
			t.Fatalf("victim p50 window %d not positive:\n%s", i+1, fig.Table())
		}
	}
}

func TestPruningShape(t *testing.T) {
	p := tinyParams()
	p.Partitions = []int{1, 5}
	p.DimsSweep = []int{2, 8}
	fig, err := Pruning(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	planeMsgs, regionMsgs := byName["plane msgs/q"], byName["region msgs/q"]
	planeMisses, regionMisses := byName["plane misses/q"], byName["region misses/q"]
	if len(planeMsgs.Y) != 2 || len(regionMsgs.Y) != 2 {
		t.Fatalf("missing series: %+v", fig.Series)
	}
	// The region guard never spends more than the plane guard, and at
	// dims >= 8 — where the one-dimensional plane bound has degraded —
	// it is strictly cheaper on both messages and probe misses.
	for i := range planeMsgs.Y {
		if regionMsgs.Y[i] > planeMsgs.Y[i] {
			t.Fatalf("region msgs above plane at dims=%v:\n%s", planeMsgs.X[i], fig.Table())
		}
	}
	last := len(planeMsgs.Y) - 1
	if regionMsgs.Y[last] >= planeMsgs.Y[last] {
		t.Fatalf("region msgs not strictly below plane at dims=8:\n%s", fig.Table())
	}
	if regionMisses.Y[last] >= planeMisses.Y[last] {
		t.Fatalf("region misses not strictly below plane at dims=8:\n%s", fig.Table())
	}
}

// TestPlacementShape: the placement figure's structural claim at smoke
// scale — the box-aware layout touches strictly fewer partitions and
// messages per query than round-robin at dims 8 (the runner itself
// errors on any result divergence, so reaching the assertions implies
// byte-identical results).
// TestChurnShape: the construction race must favor the bulk loader on
// both wall and messages even at smoke scale, every mix must contribute
// a p99 and a boxwork series, and the runner's built-in restore
// byte-identity assertion must hold (an error otherwise).
func TestChurnShape(t *testing.T) {
	p := tinyParams()
	p.Sizes = []int{3000}
	p.Partitions = []int{1, 3}
	p.Queries = 40
	p.Mixes = []int{20, 80}
	fig, err := Churn(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	for _, name := range []string{"bulk build s", "incr build s", "bulk build msgs", "incr build msgs",
		"p99 q ms @20% ins", "p99 q ms @80% ins", "boxwork/ins @20% ins", "boxwork/ins @80% ins"} {
		if len(byName[name].Y) != 1 {
			t.Fatalf("series %q missing or wrong length:\n%s", name, fig.Table())
		}
	}
	if byName["bulk build s"].Y[0] >= byName["incr build s"].Y[0] {
		t.Fatalf("bulk build not strictly below incremental on wall:\n%s", fig.Table())
	}
	if byName["bulk build msgs"].Y[0] >= byName["incr build msgs"].Y[0] {
		t.Fatalf("bulk build not strictly below incremental on messages:\n%s", fig.Table())
	}
	for _, mix := range []string{"20", "80"} {
		if byName["boxwork/ins @"+mix+"% ins"].Y[0] <= 0 {
			t.Fatalf("churn recorded no box-maintenance work at %s%% inserts:\n%s", mix, fig.Table())
		}
	}
}

func TestPlacementShape(t *testing.T) {
	p := tinyParams()
	p.Sizes = []int{4000}
	p.Partitions = []int{1, 5}
	p.DimsSweep = []int{2, 8}
	p.Queries = 40
	fig, err := Placement(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	rrParts, plParts := byName["rr parts/q"], byName["placed parts/q"]
	rrMsgs, plMsgs := byName["rr msgs/q"], byName["placed msgs/q"]
	if len(rrParts.Y) != 2 || len(plParts.Y) != 2 {
		t.Fatalf("missing series: %+v", fig.Series)
	}
	last := len(rrParts.Y) - 1
	if plParts.Y[last] >= rrParts.Y[last] {
		t.Fatalf("placed parts/q not strictly below rr at dims=8:\n%s", fig.Table())
	}
	if plMsgs.Y[last] >= rrMsgs.Y[last] {
		t.Fatalf("placed msgs/q not strictly below rr at dims=8:\n%s", fig.Table())
	}
}
