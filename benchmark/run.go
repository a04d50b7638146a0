package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"semtree"
	"semtree/internal/synth"
	"semtree/internal/triple"
)

const (
	numQueries = 4096
	// minSetups is the fewest times an untraced run sets the system up;
	// it goes on until --seconds have passed. setup_s is the median and
	// the last instance is the one measured.
	minSetups = 3
	// snapshotReps is how often the traced run saves and loads the
	// index for save_s and load_s.
	snapshotReps = 3
	// openSenders is the sender pool of the open loop: the most
	// arrivals that can be in flight at once.
	openSenders = 4
)

// clients is C: the closed-loop client count, min(2, CPUs).
func clients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// config is one invocation of the benchmark.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	smoke    bool
	outDir   string // results, traces and temp files
	repo     string // the checkout root (for building semtree-serve)
	buildDir string // where the semtree-serve binary goes

	// tamper, when set, corrupts the answers the correctness check
	// sees; the unit test uses it to prove a wrong answer fails the run.
	tamper func(*semtree.Result)
}

// measured is the run's measured time.
func (c config) measured() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// corpusSize is the workload's corpus size; smoke runs use a tenth.
func (c config) corpusSize() int {
	if c.smoke {
		return c.workload.triples / 10
	}
	return c.workload.triples
}

// report is what one run of one workload produced.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Mismatch  string  `json:"mismatch,omitempty"`
	Metrics   metrics `json:"metrics"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

func (r *report) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// op counts one attempted operation, failed if err is set.
func (r *report) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
	}
}

// finish folds the correctness tally into the report.
func (r *report) finish(c checkTally) {
	r.count(c.attempted, c.failed)
	if c.first != nil {
		r.Mismatch = c.first.Error()
	}
	r.Correct = r.Failed == 0
}

// take copies into the report the metrics of all that keep selects.
func (r *report) take(all metrics, keep func(name string) bool) {
	for name, m := range all {
		if keep(name) {
			r.Metrics.set(name, m.Value, m.Unit, m.Samples)
		}
	}
}

// gated are the end-to-end metrics: the ones an untraced run reports
// and BENCHMARK.json puts a regression bound on. They are the numbers
// that repeat from run to run in this sandbox — set-up time (the median
// of many), memory, and counts of work. The latencies and throughputs
// the load phases yield do not (see README.md), so they carry no bound
// and the traced run reports them, under their own names, among the
// per-layer metrics.
var gated = map[string]bool{
	"setup_s": true, "heap_mb": true,
	"dist_evals_per_query": true, "allocs_per_query": true,
	"snapshot_bytes_per_triple": true,
}

// inputs are everything a run feeds the system, all derived from the
// seed: the corpus, the queries (generator seeded seed+1) and the
// triples the writer ingests (seed+2).
type inputs struct {
	corpus  []triple.Triple
	queries []triple.Triple
	writes  []triple.Triple
	genTime time.Duration
}

func makeInputs(seed int64, triples, writes int) inputs {
	gen := func(s int64, n int) []triple.Triple {
		return synth.New(synth.Config{Seed: s, Actors: 200}, nil).Triples(n)
	}
	t0 := time.Now()
	corpus := gen(seed, triples)
	genTime := time.Since(t0)
	return inputs{corpus: corpus, queries: gen(seed+1, numQueries), writes: gen(seed+2, writes), genTime: genTime}
}

// system is the set-up system under test: the target the load phases
// query, the in-process index writes and snapshots go to, and how a
// snapshot is taken.
type system struct {
	target target
	// counted answers a k-NN query like target but by a fixed route —
	// the paper's sequential protocol instead of the cost model's choice
	// of the moment — so the work its answers report repeats exactly.
	counted func(context.Context, triple.Triple) (semtree.Result, error)
	// ix is the index in this process: the system itself on in-process
	// workloads; on serve, the reference index built from the same file,
	// which the wire answers are checked against and which stands in for
	// the writes the server has no API for.
	ix *semtree.Index
	// prov is the provenance ix's corpus was stored under.
	prov triple.Provenance
	// rangeLimit is the truncation the target applies to range answers.
	rangeLimit int
	// save takes one snapshot, returning its size and a way to read it
	// back.
	save func(ctx context.Context) (size int, reopen func() (*bytes.Reader, error), err error)
	stop func()
}

// setUp sets the workload's system up repeatedly — at least minReps
// times and until budget has passed — and returns the last one with
// every set-up time: store fill and semtree.Build in process; child
// start, file parse, build, listen and first answer for serve.
func setUp(ctx context.Context, cfg config, in inputs, tmp string, minReps int, budget time.Duration) (*system, []time.Duration, error) {
	w := cfg.workload
	var times []time.Duration
	start := time.Now()
	more := func() bool {
		return ctx.Err() == nil && (len(times) < minReps || time.Since(start) < budget)
	}
	if !w.wire {
		prov := triple.Provenance{Doc: "synth"}
		var inst *instance
		for more() {
			inst.close()
			runtime.GC() // the previous instance's garbage is not this one's cost
			t0 := time.Now()
			var err error
			if inst, err = w.build(cfg.seed, in.corpus, prov); err != nil {
				return nil, nil, err
			}
			times = append(times, time.Since(t0))
		}
		if err := ctx.Err(); err != nil {
			inst.close()
			return nil, nil, err
		}
		sys := &system{target: newLocalTarget(inst.ix), ix: inst.ix, prov: prov, stop: inst.close}
		sys.counted = inst.ix.Searcher(semtree.WithK(knnK), semtree.WithProtocol(semtree.ProtocolSequential)).Search
		sys.save = func(context.Context) (int, func() (*bytes.Reader, error), error) {
			var buf bytes.Buffer
			if err := semtree.Save(&buf, inst.ix); err != nil {
				return 0, nil, err
			}
			return buf.Len(), func() (*bytes.Reader, error) { return bytes.NewReader(buf.Bytes()), nil }, nil
		}
		return sys, times, nil
	}

	bin, err := buildServeBinary(ctx, cfg.repo, cfg.buildDir)
	if err != nil {
		return nil, nil, err
	}
	triplesPath := filepath.Join(tmp, childTriples)
	f, err := os.Create(triplesPath)
	if err != nil {
		return nil, nil, err
	}
	if err := triple.WriteAll(f, in.corpus); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	start = time.Now() // building the binary and writing the file are not set-up
	var ch *child
	for more() {
		ch.stop()
		t0 := time.Now()
		if ch, err = startChild(ctx, bin, tmp, cfg.seed, in.queries[0]); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
	}
	if err := ctx.Err(); err != nil {
		ch.stop()
		return nil, nil, err
	}
	// The reference index: parsed from the same file, built with the
	// child's options and provenance.
	parsed, err := readTriples(triplesPath)
	if err != nil {
		ch.stop()
		return nil, nil, err
	}
	prov := triple.Provenance{Doc: childTriples}
	ref, err := w.build(cfg.seed, parsed, prov)
	if err != nil {
		ch.stop()
		return nil, nil, err
	}
	sys := &system{
		target: wireTarget{cl: ch.client}, ix: ref.ix, prov: prov, rangeLimit: knnK,
		stop: func() { ch.stop(); ref.close() },
	}
	sys.counted = sys.target.knn // one partition: there is one route
	sys.save = func(ctx context.Context) (int, func() (*bytes.Reader, error), error) {
		n, err := ch.client.Snapshot(ctx)
		reopen := func() (*bytes.Reader, error) {
			b, err := os.ReadFile(filepath.Join(tmp, childSnapshot))
			return bytes.NewReader(b), err
		}
		return int(n), reopen, err
	}
	return sys, times, nil
}

func readTriples(path string) ([]triple.Triple, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return triple.ReadAll(f)
}

// heapMiB is HeapAlloc after a forced collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tampered passes a target's answers through the test's corruption.
type tampered struct {
	target
	tamper func(*semtree.Result)
}

func (t tampered) knn(ctx context.Context, q triple.Triple) (semtree.Result, error) {
	res, err := t.target.knn(ctx, q)
	t.tamper(&res)
	return res, err
}

// checkedTarget is the target as the correctness check sees it.
func (c config) checkedTarget(t target) target {
	if c.tamper == nil {
		return t
	}
	return tampered{target: t, tamper: c.tamper}
}

// runUntraced measures the end-to-end metrics of one workload: it sets
// the system up over and over for --seconds, then checks its answers
// against the flat scan and counts the work they took.
func runUntraced(ctx context.Context, cfg config) (*report, error) {
	w := cfg.workload
	rep := &report{Workload: w.name, Seed: cfg.seed, Metrics: metrics{}}
	in := makeInputs(cfg.seed, cfg.corpusSize(), 0)

	tmp, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	sys, setups, err := setUp(ctx, cfg, in, tmp, minSetups, cfg.measured())
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	all := metrics{}
	all.set("setup_s", medianDur(setups, time.Second), "s", len(setups))
	all.set("heap_mb", heapMiB(), "MiB", 1)

	orc, err := buildOracle(in.corpus, cfg.seed)
	if err != nil {
		return nil, err
	}
	var tally checkTally
	tally.againstScan(ctx, orc, cfg.checkedTarget(sys.target), in.queries, sys.rangeLimit)
	if w.wire {
		ref := newLocalTarget(sys.ix, semtree.WithK(knnK))
		tally.againstTarget(ctx, "wire against in-process", sys.target, ref, in.queries)
	}
	// What a k-NN query costs in work that repeats exactly: the distance
	// evaluations its Result reports (the paper's cost model, §V) and
	// the allocations it makes in this process.
	checked := sampled(in.queries)
	var distEvals int64
	allocs := mallocs(func() {
		for _, qi := range checked {
			res, err := sys.counted(ctx, in.queries[qi])
			rep.op(err)
			distEvals += res.Stats.DistanceEvals
		}
	})
	all.set("dist_evals_per_query", float64(distEvals)/float64(len(checked)), "count", len(checked))
	all.set("allocs_per_query", float64(allocs)/float64(len(checked)), "count", len(checked))

	if err := snapshots(ctx, cfg, sys, in, 1, all, rep, &tally); err != nil {
		return nil, err
	}
	rep.take(all, func(name string) bool { return gated[name] })
	rep.finish(tally)
	return rep, nil
}

// plan splits the measured seconds of the load phases over numRounds
// rounds and each round over the phases. The writer runs beside the
// k-NN phase on churn and alone, after the query phases, elsewhere; its
// cycle count per round is fixed by the plan, so the index's final size
// is too.
type plan struct {
	knn, within, open, ingest segment
	cycles                    int // writer cycles per round
}

func planOf(w workload, measured time.Duration) plan {
	share := func(f float64) segment {
		return segmentOf(time.Duration(f * float64(measured) / numRounds))
	}
	p := plan{within: share(0.2), open: share(0.2)}
	if w.churn {
		p.knn = share(0.6)
		p.ingest = p.knn
	} else {
		p.knn = share(0.4)
		p.ingest = share(0.2)
	}
	p.cycles = int(p.ingest.total() / writeEvery)
	return p
}

// queryOp adapts a search method to a load-phase operation cycling
// through the queries.
func queryOp(queries []triple.Triple, search func(context.Context, triple.Triple) (semtree.Result, error)) op {
	return func(ctx context.Context, i int) error {
		_, err := search(ctx, queries[i%len(queries)])
		return err
	}
}

// goodput is the share of the arrivals sent that succeeded within the
// limit; a failed arrival left no sample and so counts against it.
func goodput(r loadResult, limit time.Duration) float64 {
	ok := 0
	for _, s := range r.samples {
		if s.lat <= limit {
			ok++
		}
	}
	return float64(ok) / float64(r.attempted)
}

// drive puts the set-up system through the load phases, one segment of
// each per round — k-NN closed loop (on churn one reader beside the
// paced writer), range closed loop, k-NN open loop at the workload's
// fixed rate, then, except on churn where they are already done, the
// writes alone — and records every number they yield in all.
func drive(ctx context.Context, cfg config, sys *system, in inputs, pl plan, all metrics, rep *report) error {
	w := cfg.workload
	knn, within, open := phaseLoad{seg: pl.knn}, phaseLoad{seg: pl.within}, phaseLoad{seg: pl.open}
	batches, singles := phaseLoad{seg: pl.ingest}, phaseLoad{seg: pl.ingest}
	readers := clients()
	if w.churn {
		readers = 1
	}
	for r := 0; r < numRounds && ctx.Err() == nil; r++ {
		first := r * numQueries / numRounds
		items := in.writes[r*pl.cycles*writePerCyc : (r+1)*pl.cycles*writePerCyc]
		var writes writeResult
		var writer sync.WaitGroup
		if w.churn {
			writer.Add(1)
			go func() {
				defer writer.Done()
				writes = pacedWriter(ctx, sys.ix, items)
			}()
		}
		knn.add(closedLoop(ctx, readers, pl.knn, first, queryOp(in.queries, sys.target.knn)))
		writer.Wait()
		within.add(closedLoop(ctx, clients(), pl.within, first, queryOp(in.queries, sys.target.within)))
		open.add(openLoop(ctx, w.openRate, openSenders, pl.open, first, queryOp(in.queries, sys.target.knn)))
		if !w.churn {
			writes = pacedWriter(ctx, sys.ix, items)
		}
		batches.add(writes.batch)
		singles.add(writes.single)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, p := range []*phaseLoad{&knn, &within, &open, &batches, &singles} {
		for _, r := range p.rounds {
			rep.count(r.attempted, r.failed)
		}
	}
	ks, rs, opn := knn.stats(), within.stats(), open.stats()
	all.set("qps", ks.perSec, "1/s", ks.samples)
	all.set("p50_us", ks.p50, "us", ks.samples)
	all.set("p90_us", ks.p90, "us", ks.samples)
	all.set("client.p99_us", ks.p99, "us", ks.samples)
	all.set("client.p999_us", ks.p999, "us", ks.samples)
	all.set("client.samples", float64(ks.samples), "count", ks.samples)
	all.set("client.segment_spread", ks.spread, "ratio", numRounds)
	all.set("range_qps", rs.perSec, "1/s", rs.samples)
	all.set("range_p50_us", rs.p50, "us", rs.samples)
	all.set("open_p50_us", opn.p50, "us", opn.samples)
	all.set("open_p90_us", opn.p90, "us", opn.samples)
	sent := merge(open.rounds)
	late := make([]float64, len(sent.late))
	for i, d := range sent.late {
		late[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(late)
	all.set("open_goodput", goodput(sent, w.openLimit), "ratio", sent.attempted)
	all.set("loadgen.sent", float64(sent.attempted), "count", sent.attempted)
	all.set("loadgen.late_p99_us", percentile(late, 0.99), "us", len(late))
	bs, ss := batches.stats(), singles.stats()
	all.set("ingest_batch_p50_us", bs.p50, "us", bs.samples)
	all.set("insert_p50_us", ss.p50, "us", ss.samples)
	return nil
}

// snapshots saves and loads the system's index reps times, records the
// median times and the snapshot's size per stored triple in all, and
// checks that the last loaded index answers exactly like the one saved.
func snapshots(ctx context.Context, cfg config, sys *system, in inputs, reps int, all metrics, rep *report, tally *checkTally) error {
	w := cfg.workload
	var saves, loads []time.Duration
	var size, stored int
	for r := 0; r < reps; r++ {
		runtime.GC() // the previous repetition's garbage is not this one's cost
		t0 := time.Now()
		n, reopen, err := sys.save(ctx)
		saves = append(saves, time.Since(t0))
		rep.op(err)
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
		size = n
		rd, err := reopen()
		if err != nil {
			return err
		}
		opts, fabric := w.options(cfg.seed, len(in.corpus))
		t0 = time.Now()
		loaded, err := semtree.Load(rd, opts)
		loads = append(loads, time.Since(t0))
		rep.op(err)
		if err != nil {
			if fabric != nil {
				fabric.Close()
			}
			return fmt.Errorf("load: %w", err)
		}
		inst := &instance{ix: loaded, fabric: fabric}
		stored = loaded.Len()
		if r == reps-1 {
			var rangeOpts []semtree.SearchOption
			if sys.rangeLimit > 0 {
				rangeOpts = append(rangeOpts, semtree.WithK(sys.rangeLimit))
			}
			tally.againstTarget(ctx, "loaded against saved", cfg.checkedTarget(newLocalTarget(loaded, rangeOpts...)), sys.target, in.queries)
		}
		inst.close()
	}
	all.set("save_s", medianDur(saves, time.Second), "s", len(saves))
	all.set("load_s", medianDur(loads, time.Second), "s", len(loads))
	all.set("snapshot_bytes_per_triple", float64(size)/float64(stored), "bytes", stored)
	return ctx.Err()
}
