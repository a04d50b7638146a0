// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§IV): the efficiency figures
// (3–7) over synthetic triple workloads and simulated cluster fabrics,
// the effectiveness figure (8) over corpora with planted
// inconsistencies, the §III-C complexity model and the ablations of
// the design choices ARCHITECTURE.md describes. Runners return Figures
// that render as aligned text tables or CSV. Engine measurements
// (throughput, deadlines, quotas, placement, churn) are not here: the
// repo benchmark under benchmark/ measures them and the tests in
// internal/core and internal/serve gate them.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Series is one curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is one reproduced experiment: a set of series over a shared
// X axis, with rendering metadata and provenance notes.
type Figure struct {
	ID     string // "fig3", "ablation-dims", ...
	Title  string
	XLabel string
	YLabel string
	YFmt   string // printf verb for Y values, default "%.4f"
	Series []Series
	Notes  []string
}

func (f *Figure) yfmt() string {
	if f.YFmt == "" {
		return "%.4f"
	}
	return f.YFmt
}

// xs returns the union of all series' X values in ascending order.
func (f *Figure) xs() []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// Table renders the figure as an aligned text table, one row per X
// value and one column per series, matching the way the paper's
// figures plot series over a shared axis.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(f.ID), f.Title)
	xs := f.xs()
	header := append([]string{f.XLabel}, seriesNames(f.Series)...)
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{formatX(x)}
		for _, s := range f.Series {
			row = append(row, f.lookup(s, x))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with a header row.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(append([]string{f.XLabel}, seriesNames(f.Series)...), ","))
	b.WriteByte('\n')
	for _, x := range f.xs() {
		cells := []string{formatX(x)}
		for _, s := range f.Series {
			cells = append(cells, f.lookup(s, x))
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func (f *Figure) lookup(s Series, x float64) string {
	for i, sx := range s.X {
		if sx == x {
			return fmt.Sprintf(f.yfmt(), s.Y[i])
		}
	}
	return ""
}

func seriesNames(ss []Series) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}

func formatX(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

// Params configure the experiment runners. Zero values select defaults
// scaled for a laptop run; the full paper-scale sweep is a flag away in
// cmd/semtree-bench.
type Params struct {
	Sizes      []int         // point-count sweep (default 5k..80k)
	Partitions []int         // M values (default 1, 3, 5, 9)
	BucketSize int           // Bs (default 16)
	Dims       int           // FastMap k (default 8)
	Queries    int           // query batch per measurement (default 200)
	K          int           // k-nearest K (default 3, the paper's)
	RangeD     float64       // range-query radius on the Eq. 1 scale (default 0.2)
	Latency    time.Duration // simulated per-hop latency (default 200µs)
	Seed       int64
}

func (p Params) withDefaults() Params {
	if len(p.Sizes) == 0 {
		p.Sizes = []int{5000, 10000, 20000, 40000, 80000}
	}
	if len(p.Partitions) == 0 {
		p.Partitions = []int{1, 3, 5, 9}
	}
	if p.BucketSize <= 0 {
		p.BucketSize = 16
	}
	if p.Dims <= 0 {
		p.Dims = 8
	}
	if p.Queries <= 0 {
		p.Queries = 200
	}
	if p.K <= 0 {
		p.K = 3
	}
	if p.RangeD <= 0 {
		p.RangeD = 0.2
	}
	if p.Latency <= 0 {
		p.Latency = 200 * time.Microsecond
	}
	return p
}

// Runner regenerates one experiment.
type Runner func(context.Context, Params) (*Figure, error)

// Runners maps experiment IDs to their runners; cmd/semtree-bench
// iterates this registry.
func Runners() map[string]Runner {
	return map[string]Runner{
		"fig3":             Fig3,
		"fig4":             Fig4,
		"fig5":             Fig5,
		"fig6":             Fig6,
		"fig7":             Fig7,
		"fig8":             Fig8,
		"complexity":       Complexity,
		"ablation-weights": AblationWeights,
		"ablation-dims":    AblationDims,
		"ablation-bucket":  AblationBucket,
		"ablation-measure": AblationMeasure,
	}
}

// RunnerIDs returns the registry keys in a stable order.
func RunnerIDs() []string {
	ids := make([]string, 0)
	for id := range Runners() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
