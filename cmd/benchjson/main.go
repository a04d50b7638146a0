// Command benchjson gates the *shape* of a semtree-bench figure in CI:
//
//	benchjson -structural figures/placement.csv -min-x 8 \
//	    -require 'placed parts/q<rr parts/q' \
//	    -require 'placed msgs/q<rr msgs/q'
//
// The CSV is a semtree-bench figure export (first column the X axis,
// one column per series). Each -require names two series columns; every
// row with X >= min-x must satisfy the strict inequality or the command
// exits non-zero. Structural metrics — partitions touched, fabric
// messages — are deterministic per seed, so unlike ns/op they gate
// exactly, with no noise margin; a single violated row fails the build.
//
// Wall-time and allocation regressions are not gated here: every PR is
// measured by the repo benchmark (BENCHMARK.json, benchmark/) with
// paired parent/change runs on one machine.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// requireFlag collects repeated -require "left<right" expressions.
type requireFlag []string

func (r *requireFlag) String() string { return strings.Join(*r, "; ") }
func (r *requireFlag) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// figureCSV is a parsed semtree-bench figure export: the header's first
// cell is the X-axis label, the rest are series names; each row is an X
// value followed by one cell per series (possibly empty where a series
// has no point at that X).
type figureCSV struct {
	xLabel string
	names  []string
	xs     []float64
	rows   [][]string // cells per row, aligned with names
}

// parseFigureCSV reads a figure CSV. Figure exports never quote cells
// (series names carry no commas), so a plain split is exact.
func parseFigureCSV(r io.Reader) (*figureCSV, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("empty CSV")
	}
	header := strings.Split(sc.Text(), ",")
	if len(header) < 2 {
		return nil, fmt.Errorf("CSV header has no series columns: %q", sc.Text())
	}
	f := &figureCSV{xLabel: header[0], names: header[1:]}
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			return nil, fmt.Errorf("CSV row has %d cells, header has %d: %q", len(cells), len(header), line)
		}
		x, err := strconv.ParseFloat(cells[0], 64)
		if err != nil {
			return nil, fmt.Errorf("CSV row X %q: %w", cells[0], err)
		}
		f.xs = append(f.xs, x)
		f.rows = append(f.rows, cells[1:])
	}
	return f, sc.Err()
}

// column returns the index of the named series, or an error listing the
// columns that do exist — the require expressions are a contract with
// the figure runner's series names, and a silent miss would gate
// nothing.
func (f *figureCSV) column(name string) (int, error) {
	for i, n := range f.names {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no series %q in CSV (have: %s)", name, strings.Join(f.names, ", "))
}

// checkStructural enforces one -require expression "left<right" over
// every row with X >= minX: strict inequality, any violation or an
// unparseable/absent cell is an error. Returns the number of rows
// checked so the caller can reject a gate that matched nothing.
func checkStructural(f *figureCSV, expr string, minX float64) (checked int, err error) {
	left, right, ok := strings.Cut(expr, "<")
	if !ok {
		return 0, fmt.Errorf("require %q: want the form \"left<right\"", expr)
	}
	li, err := f.column(strings.TrimSpace(left))
	if err != nil {
		return 0, err
	}
	ri, err := f.column(strings.TrimSpace(right))
	if err != nil {
		return 0, err
	}
	for i, x := range f.xs {
		if x < minX {
			continue
		}
		lv, err := strconv.ParseFloat(f.rows[i][li], 64)
		if err != nil {
			return checked, fmt.Errorf("%s=%g: column %q: %w", f.xLabel, x, f.names[li], err)
		}
		rv, err := strconv.ParseFloat(f.rows[i][ri], 64)
		if err != nil {
			return checked, fmt.Errorf("%s=%g: column %q: %w", f.xLabel, x, f.names[ri], err)
		}
		if !(lv < rv) {
			return checked, fmt.Errorf("%s=%g: %s = %g, not below %s = %g",
				f.xLabel, x, f.names[li], lv, f.names[ri], rv)
		}
		checked++
	}
	return checked, nil
}

// runStructural is the -structural entry point: parse the figure CSV,
// enforce every -require over the rows at or past -min-x.
func runStructural(path string, requires []string, minX float64) error {
	if len(requires) == 0 {
		return fmt.Errorf("-structural needs at least one -require expression")
	}
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	f, err := parseFigureCSV(file)
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	for _, expr := range requires {
		n, err := checkStructural(f, expr, minX)
		if err != nil {
			return fmt.Errorf("%s: require %q: %w", path, expr, err)
		}
		if n == 0 {
			return fmt.Errorf("%s: require %q checked no rows (min-x %g, max %s %g)",
				path, expr, minX, f.xLabel, maxX(f.xs))
		}
		fmt.Printf("benchjson: %s: require %q holds on %d row(s) with %s >= %g\n",
			path, expr, n, f.xLabel, minX)
	}
	return nil
}

func maxX(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func main() {
	var (
		structural = flag.String("structural", "", "the figure CSV whose shape to gate")
		minX       = flag.Float64("min-x", math.Inf(-1), "enforce -require only on rows with X >= this")
		requires   requireFlag
	)
	flag.Var(&requires, "require", "a \"left<right\" series inequality to enforce (repeatable)")
	flag.Parse()
	if *structural == "" {
		fatal(fmt.Errorf("-structural <figure.csv> is required"))
	}
	if err := runStructural(*structural, requires, *minX); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
