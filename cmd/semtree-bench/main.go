// Command semtree-bench regenerates the paper's evaluation: every
// figure (3–8), the §III-C complexity check and the design ablations.
// Engine measurements (latency, throughput, allocations, heap) belong
// to the repo benchmark, `sh benchmark/run.sh`.
//
// Usage:
//
//	semtree-bench -fig all
//	semtree-bench -fig fig3 -sizes 10000,20000,50000,100000 -partitions 1,3,5,9
//	semtree-bench -fig fig5,fig7 -latency 1ms -queries 500
//	semtree-bench -fig fig8 -csv out/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"semtree/internal/bench"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "experiment to run: all, "+strings.Join(bench.RunnerIDs(), ", "))
		sizes      = flag.String("sizes", "", "comma-separated point counts (default 5000,10000,20000,40000,80000)")
		partitions = flag.String("partitions", "", "comma-separated partition counts (default 1,3,5,9)")
		queries    = flag.Int("queries", 0, "queries per measurement (default 200)")
		k          = flag.Int("k", 0, "k-nearest K (default 3)")
		rangeD     = flag.Float64("d", 0, "range query radius (default 0.2)")
		latency    = flag.Duration("latency", 0, "simulated per-hop latency (default 200µs)")
		seed       = flag.Int64("seed", 1, "workload seed")
		csvDir     = flag.String("csv", "", "also write <dir>/<fig>.csv")
	)
	flag.Parse()

	params := bench.Params{
		Queries: *queries,
		K:       *k,
		RangeD:  *rangeD,
		Latency: *latency,
		Seed:    *seed,
	}
	var err error
	if params.Sizes, err = parseInts(*sizes); err != nil {
		fatal(err)
	}
	if params.Partitions, err = parseInts(*partitions); err != nil {
		fatal(err)
	}
	ids, err := resolveFigs(*fig)
	if err != nil {
		fatal(err)
	}
	runners := bench.Runners()

	// Per-figure wall time brackets each run (announced up front,
	// reported on completion — and on failure, where a nightly job
	// needs it most) so CI logs show where a job's time budget goes.
	// The cancellation root for every runner: ^C interrupts a long sweep
	// instead of orphaning it. Runners thread this context down to each
	// KNearest/RangeSearch call.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	for _, id := range ids {
		fmt.Printf("running %s...\n", id)
		start := time.Now()
		figure, err := runners[id](ctx, params)
		if err != nil {
			fmt.Printf("(%s failed after %v)\n", id, time.Since(start).Round(time.Millisecond))
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Println(figure.Table())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*csvDir, figure.ID+".csv")
			if err := os.WriteFile(path, []byte(figure.CSV()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
}

// resolveFigs expands the -fig value into registered runner ids: "all"
// is the whole registry, otherwise a comma-separated list of ids.
func resolveFigs(fig string) ([]string, error) {
	if fig == "all" {
		return bench.RunnerIDs(), nil
	}
	runners := bench.Runners()
	var ids []string
	for _, id := range strings.Split(fig, ",") {
		id = strings.TrimSpace(id)
		if _, ok := runners[id]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(bench.RunnerIDs(), ", "))
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "semtree-bench:", err)
	os.Exit(1)
}
