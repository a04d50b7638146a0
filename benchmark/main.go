// Command benchmark is the repository's benchmark: one run sets one
// workload up from a seed, drives it, checks its answers against a flat
// scan, and prints every metric by name. See README.md.
//
//	sh benchmark/run.sh --workload knn-local --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end
// metrics; with --trace 1 it replays queries through a stack assembled
// layer by layer, records a span per layer boundary, then drives the
// load phases, and reports the per-layer metrics. The last line of
// standard output is the result as one JSON object; the table goes to
// standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// smokeSeconds is the measured time of a -smoke run.
const smokeSeconds = 5

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := mainCode(ctx, os.Args[1:], os.Stdout, os.Stderr, nil)
	stop()
	os.Exit(code)
}

// mainCode is main without the process exit, so the unit test can run
// the whole command. tamper is the test's answer corruption (nil
// outside tests).
func mainCode(ctx context.Context, args []string, stdout, stderr io.Writer, tamper func(*config)) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: knn-local, knn-tcp9, serve, churn or all")
		seed    = fs.Int64("seed", 1, "seed of the generated corpus, queries and writes")
		seconds = fs.Float64("seconds", 15, "measured seconds of one run, split over its phases")
		trace   = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke   = fs.Bool("smoke", false, "a tenth of the corpus and 5 measured seconds (CI and the unit test)")
		outDir  = fs.String("out", "out", "directory for results, traces and temp files")
		repo    = fs.String("repo", "..", "root of the checkout (semtree-serve is built from it)")
		build   = fs.String("build-dir", filepath.Join("..", ".bench_build"), "where the semtree-serve binary is built")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace is 0 or 1, not %d\n", *trace)
		return 2
	}
	if *smoke {
		*seconds = smokeSeconds
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	code := 0
	for _, w := range todo {
		cfg := config{
			workload: w, seed: *seed, seconds: *seconds, smoke: *smoke,
			outDir: *outDir, repo: *repo, buildDir: *build,
		}
		if tamper != nil {
			tamper(&cfg)
		}
		run := runUntraced
		if *trace == 1 {
			run = runTraced
		}
		rep, err := run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if err := emit(rep, *outDir, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !rep.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed: %s\n", w.name, rep.Failed, rep.Attempted, rep.Mismatch)
			code = 1
		}
	}
	return code
}

// emit writes the full report (sample counts, workload, "claim": null)
// to the out directory, the aligned table to stderr, and the contract's
// result line to stdout.
func emit(rep *report, outDir string, stdout, stderr io.Writer) error {
	kind := "untraced"
	if rep.Traced {
		kind = "traced"
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", rep.Workload, kind))
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	printTable(stderr, rep.Workload, rep.Metrics)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	for name, m := range rep.Metrics {
		line.Metrics[name] = value{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}
