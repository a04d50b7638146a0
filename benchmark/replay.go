package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"semtree"
	"semtree/internal/cluster"
	"semtree/internal/core"
	"semtree/internal/kdtree"
	"semtree/internal/serve"
	"semtree/internal/triple"
)

// stack is the query path assembled by the benchmark itself from the
// public constructors semtree.Build uses: the oracle's metric and
// FastMap mapper, a triple store, and a core.Tree over the workload's
// fabric, wrapped in the tracer's tap, with its own scheduler. It
// answers like the facade (and is checked to), but every boundary
// between its layers is a call the benchmark makes and can time.
type stack struct {
	orc    *oracle
	store  *triple.Store
	fabric cluster.Fabric
	tree   *core.Tree
	sched  *core.Scheduler
}

// newFabric is a fresh fabric of the workload's type.
func (w workload) newFabric() cluster.Fabric {
	if w.tcp {
		return cluster.NewTCP()
	}
	return cluster.NewInProc(cluster.InProcOptions{})
}

// points are the oracle's coordinates as tree points, IDs positional.
func (o *oracle) points() []kdtree.Point {
	out := make([]kdtree.Point, len(o.coords))
	for i, c := range o.coords {
		out[i] = kdtree.Point{Coords: c, ID: uint64(i)}
	}
	return out
}

// assemble builds the stack for a workload; bulkload is the time of
// Tree.BulkLoad.
func assemble(ctx context.Context, w workload, orc *oracle, prov triple.Provenance, tr *tracer) (*stack, time.Duration, error) {
	fabric := w.newFabric()
	cfg := core.Config{Dim: orc.mapper.Dims(), MaxPartitions: w.partitions, Fabric: cluster.Observe(fabric, tr.observeCall)}
	if w.capDiv > 0 {
		cfg.PartitionCapacity = len(orc.corpus) / w.capDiv
	}
	tree, err := core.New(cfg)
	if err != nil {
		fabric.Close()
		return nil, 0, err
	}
	store := triple.NewStore()
	store.AddAll(orc.corpus, prov)
	t0 := time.Now()
	if err := tree.BulkLoad(ctx, orc.points()); err != nil {
		fabric.Close()
		return nil, 0, err
	}
	bulkload := time.Since(t0)
	return &stack{orc: orc, store: store, fabric: fabric, tree: tree, sched: tree.NewScheduler(core.SchedulerConfig{})}, bulkload, nil
}

func (s *stack) close() {
	s.tree.Close()
	s.fabric.Close()
}

func (s *stack) resolve(ns []kdtree.Neighbor, st core.ExecStats, err error) (semtree.Result, error) {
	res := semtree.Result{Stats: st, Err: err}
	if err != nil {
		return res, err
	}
	for _, n := range ns {
		e, ok := s.store.Get(triple.ID(n.Point.ID))
		if !ok {
			res.Err = fmt.Errorf("stack: no stored triple for ID %d", n.Point.ID)
			return res, res.Err
		}
		res.Matches = append(res.Matches, semtree.Match{ID: triple.ID(n.Point.ID), Triple: e.Triple, Prov: e.Prov, Dist: n.Dist})
	}
	return res, nil
}

func (s *stack) knn(ctx context.Context, q triple.Triple) (semtree.Result, error) {
	return s.resolve(s.sched.KNearest(ctx, s.orc.mapper.Map(q), knnK))
}

func (s *stack) within(ctx context.Context, q triple.Triple) (semtree.Result, error) {
	return s.resolve(s.sched.RangeSearch(ctx, s.orc.mapper.Map(q), rangeRadius))
}

// echoMsg is the payload of the bare fabric echo, shaped like the
// messages a k-NN query puts on the fabric: the query point and a
// result set of knnK neighbours.
type echoMsg struct {
	Query []float64
	Rs    []kdtree.Neighbor
}

func newEchoMsg(dims int) echoMsg {
	msg := echoMsg{Query: make([]float64, dims), Rs: make([]kdtree.Neighbor, knnK)}
	for i := range msg.Rs {
		msg.Rs[i].Point.Coords = make([]float64, dims)
	}
	return msg
}

func init() { cluster.RegisterMessage(echoMsg{}) }

// Sizes of the traced replay; a smoke run replays a fifth.
const (
	traceQueries = 1000
	traceAllocs  = 200 // queries of an allocation-counting pass
	traceCycles  = 40
	traceDials   = 20
	traceBatch   = 64
)

// mallocs counts the heap allocations of fn, process-wide.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// runTraced sets the system up once, replays queries and write cycles
// one at a time through the real index and through the assembled stack,
// recording a span at every layer boundary, then drives the system
// through the load phases for --seconds, and reports the per-layer
// metrics.
func runTraced(ctx context.Context, cfg config) (*report, error) {
	w := cfg.workload
	rep := &report{Workload: w.name, Seed: cfg.seed, Traced: true, Metrics: metrics{}}
	m := rep.Metrics
	nq, cycles := traceQueries, traceCycles
	if cfg.smoke {
		nq, cycles = nq/5, cycles/5
	}
	pl := planOf(w, cfg.measured())
	driven := numRounds * pl.cycles * writePerCyc
	in := makeInputs(cfg.seed, cfg.corpusSize(), driven+cycles*writePerCyc)
	m.set("gen.corpus_s", in.genTime.Seconds(), "s", 1)
	tr := newTracer()
	var tally checkTally

	tmp, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// The real index (on serve: the reference index beside the child)
	// and the assembled stack, layer by layer.
	sys, setups, err := setUp(ctx, cfg, in, tmp, 1, 0)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	real := newLocalTarget(sys.ix)

	t0 := time.Now()
	orc, err := buildOracle(in.corpus, cfg.seed)
	if err != nil {
		return nil, err
	}
	mapBuild := time.Since(t0)
	buildCalls, distNs := orc.distCalls.Load(), orc.meanDistNs()
	st, bulkload, err := assemble(ctx, w, orc, sys.prov, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()

	// facade.build_s is the store fill plus semtree.Build: set-up itself
	// in process; on serve set-up was the child's, so build once more.
	buildTime := setups[0]
	if w.wire {
		t0 = time.Now()
		again, err := w.build(cfg.seed, in.corpus, sys.prov)
		if err != nil {
			return nil, err
		}
		buildTime = time.Since(t0)
		again.close()
	}
	m.set("facade.build_s", buildTime.Seconds(), "s", 1)
	m.set("facade.build_self_s", (buildTime - mapBuild - bulkload).Seconds(), "s", 1)
	m.set("fastmap.build_s", mapBuild.Seconds(), "s", 1)
	m.set("fastmap.build_dist_calls", float64(buildCalls), "count", 1)
	m.set("core.tree.bulkload_s", bulkload.Seconds(), "s", 1)
	// Time inside Metric.Distance during the build, from the oracle's
	// sampled calls, over the build's whole time.
	m.set("semdist.distance_ns", distNs, "ns", int(buildCalls/distSampleEvery))
	m.set("semdist.build_share", float64(buildCalls)*distNs/float64(mapBuild.Nanoseconds()), "ratio", 1)

	// The spans below describe the facade's work only if the stack
	// answers exactly like it, and both like the flat scan.
	tally.againstScan(ctx, orc, cfg.checkedTarget(real), in.queries, 0)
	tally.againstTarget(ctx, "assembled stack against Searcher", st, real, in.queries)

	if err := replay(ctx, w, m, tr, rep, &tally, sys.ix, st, in.queries[:nq]); err != nil {
		return nil, err
	}
	traceStore(m, st.store)
	traceWrites(ctx, m, tr, rep, st, in.writes[driven:])
	if err := tracePersist(ctx, cfg, m, rep, sys.ix, st, in); err != nil {
		return nil, err
	}

	sst := st.sched.Stats()
	m.set("core.sched.admitted", float64(sst.Admitted), "count", 1)
	m.set("core.sched.rejected", float64(sst.RejectedLoad+sst.RejectedBudget+sst.RejectedQuota), "count", 1)
	m.set("core.sched.choice_sequential", float64(sst.Choices["sequential"]+sst.Choices["auto:sequential"]), "count", 1)
	m.set("core.sched.choice_fanout", float64(sst.Choices["parallel"]+sst.Choices["auto:parallel"]), "count", 1)
	m.set("cluster.failures", float64(st.fabric.Stats().Failures), "count", 1)
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}

	// The load phases, then the snapshots of the index they grew: the
	// latencies and throughputs a client sees, which carry no bound.
	all := metrics{}
	if err := drive(ctx, cfg, sys, in, pl, all, rep); err != nil {
		return nil, err
	}
	if err := snapshots(ctx, cfg, sys, in, snapshotReps, all, rep, &tally); err != nil {
		return nil, err
	}
	rep.take(all, func(name string) bool { return !gated[name] })
	rep.finish(tally)
	return rep, nil
}

// replayBlock is how many consecutive queries one layer answers before
// the replay moves on to the next layer.
const replayBlock = 25

// replay runs the queries through every layer in blocks: a layer
// answers replayBlock queries, then the next layer answers the same
// queries, and so on through the layers before the next block starts.
// All layers are thus timed under the same state of the machine — the
// difference of two layers' medians is not the sandbox drifting between
// two passes — while each still runs long enough at a time to work on
// its own warm caches, as it does in a real run. Every other block
// takes the layers in reverse order, so no layer is always the one that
// finds its queries' data warmed by a neighbour. Allocations are
// counted afterwards, one layer at a time.
func replay(ctx context.Context, w workload, m metrics, tr *tracer, rep *report, tally *checkTally, ix *semtree.Index, st *stack, queries []triple.Triple) error {
	n := len(queries)
	real := newLocalTarget(ix)

	// A serve.Server over the real index on a loopback listener, in
	// this process: its round trip less the Searcher.Search it wraps is
	// the serving tier's own cost.
	srv, err := serve.NewServer(serve.Config{
		Index:   ix,
		Tenants: []serve.TenantConfig{{Name: "bench", Token: childToken, Options: []semtree.SearchOption{semtree.WithK(knnK)}}},
	})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(context.WithoutCancel(ctx), lis) }()
	defer func() {
		_ = srv.Drain(ctx) // the listener and connections close either way
		<-served
	}()
	addr := lis.Addr().String()
	var dials []time.Duration
	for i := 0; i < traceDials; i++ {
		t0 := time.Now()
		cl, err := serve.Dial(ctx, addr, childToken)
		if err != nil {
			return err
		}
		dials = append(dials, time.Since(t0))
		cl.Close()
	}
	m.set("serve.dial_us", micros(dials), "us", len(dials))
	cl, err := serve.Dial(ctx, addr, childToken)
	if err != nil {
		return err
	}
	defer cl.Close()
	wire := wireTarget{cl: cl}

	// A bare echo handler on a fresh fabric of the workload's type:
	// envelope and transport, no tree.
	echoFabric := w.newFabric()
	defer echoFabric.Close()
	echoNode, err := echoFabric.AddNode(func(_ context.Context, _ cluster.NodeID, req any) (any, error) { return req, nil })
	if err != nil {
		return err
	}
	echo := newEchoMsg(st.orc.mapper.Dims())

	// A sequential kdtree over the same points: the compute floor under
	// core.tree.
	t0 := time.Now()
	kd, err := kdtree.BulkLoad(st.orc.points(), st.orc.mapper.Dims(), 0)
	if err != nil {
		return err
	}
	m.set("kdtree.bulkload_s", time.Since(t0).Seconds(), "s", 1)

	var (
		matches int
		sum     core.ExecStats
		treeNs  time.Duration
		kdStats kdtree.Stats
		spanned time.Duration // the facade under a span, bookkeeping included
		bare    time.Duration // the same call with no span
	)
	spanOf := func(name string, i int, fn func()) { tr.around(name, 0, i, func(int) { fn() }) }
	steps := []func(i int){
		func(i int) {
			spanOf("serve.roundtrip", i, func() {
				_, err := wire.knn(ctx, queries[i])
				rep.op(err)
			})
		},
		// The facade under a span, timed from outside it, and once more
		// with no span: the difference is what tracing costs.
		func(i int) {
			t0 := time.Now()
			spanOf("facade.search", i, func() {
				res, err := real.knn(ctx, queries[i])
				rep.op(err)
				matches += len(res.Matches)
			})
			spanned += time.Since(t0)
		},
		func(i int) {
			t0 := time.Now()
			_, err := real.knn(ctx, queries[i])
			bare += time.Since(t0)
			rep.op(err)
		},
		// The stack: embed, then the scheduler over the tree, as two
		// child spans of one query span; fabric calls nest under the
		// scheduler's.
		func(i int) {
			tr.around("stack.query", 0, i, func(id int) {
				var c []float64
				tr.around("fastmap.map", id, i, func(int) { c = st.orc.mapper.Map(queries[i]) })
				tr.around("core.sched", id, i, func(int) {
					_, _, err := st.sched.KNearest(ctx, c, knnK)
					rep.op(err)
				})
			})
		},
		// Below the scheduler, the query is embedded just before the
		// span: the tree is timed in the cache state the facade's path
		// leaves it in.
		func(i int) {
			c := st.orc.mapper.Map(queries[i])
			spanOf("core.tree.knn", i, func() {
				_, es, err := st.tree.KNearestStats(ctx, c, knnK)
				rep.op(err)
				sum.NodesVisited += es.NodesVisited
				sum.BucketsScanned += es.BucketsScanned
				sum.DistanceEvals += es.DistanceEvals
				sum.Partitions += es.Partitions
				sum.FabricMessages += es.FabricMessages
				sum.ProbeMisses += es.ProbeMisses
				treeNs += es.Wall
			})
		},
		func(i int) {
			c := st.orc.mapper.Map(queries[i])
			spanOf("kdtree.knn", i, func() { kd.KNearestWithStats(c, knnK, &kdStats) })
		},
		func(i int) {
			c := st.orc.mapper.Map(queries[i])
			spanOf("core.tree.range", i, func() {
				_, _, err := st.tree.RangeSearchStats(ctx, c, rangeRadius)
				rep.op(err)
			})
		},
		func(i int) {
			c := st.orc.mapper.Map(queries[i])
			spanOf("kdtree.range", i, func() { kd.RangeSearch(c, rangeRadius) })
		},
		func(i int) {
			spanOf("cluster.echo", i, func() {
				_, err := echoFabric.Call(ctx, cluster.ClientID, echoNode, echo)
				rep.op(err)
			})
		},
	}
	loopStart := time.Now()
	for lo, blk := 0, 0; lo < n && ctx.Err() == nil; lo, blk = lo+replayBlock, blk+1 {
		for k := range steps {
			step := steps[k]
			if blk%2 == 1 {
				step = steps[len(steps)-1-k]
			}
			for i := lo; i < min(lo+replayBlock, n); i++ {
				step(i)
			}
		}
	}
	loop := time.Since(loopStart)
	if err := ctx.Err(); err != nil {
		return err
	}

	per := func(v int64) float64 { return float64(v) / float64(n) }
	search, sched, knn := tr.medianOf("facade.search"), tr.medianOf("core.sched"), tr.medianOf("core.tree.knn")
	m.set("serve.roundtrip_us", tr.medianOf("serve.roundtrip"), "us", n)
	m.set("serve.self_us", tr.medianOf("serve.roundtrip")-search, "us", n)
	m.set("facade.search_us", search, "us", n)
	m.set("facade.self_us", search-tr.medianOf("stack.query"), "us", n)
	m.set("facade.matches_per_query", float64(matches)/float64(n), "count", n)
	m.set("fastmap.map_us", tr.medianOf("fastmap.map"), "us", n)
	m.set("core.sched.span_us", sched, "us", n)
	m.set("core.sched.self_us", sched-knn, "us", n)
	m.set("core.tree.knn_us", knn, "us", n)
	m.set("core.tree.range_us", tr.medianOf("core.tree.range"), "us", n)
	m.set("core.tree.nodes_per_query", per(sum.NodesVisited), "count", n)
	m.set("core.tree.buckets_per_query", per(sum.BucketsScanned), "count", n)
	m.set("core.tree.dist_evals_per_query", per(sum.DistanceEvals), "count", n)
	m.set("core.tree.partitions_per_query", per(int64(sum.Partitions)), "count", n)
	m.set("core.tree.msgs_per_query", per(sum.FabricMessages), "count", n)
	downstream := sum.FabricMessages - int64(n) // all but the client's own call to the root
	missRatio := 0.0
	if downstream > 0 {
		missRatio = float64(sum.ProbeMisses) / float64(downstream)
	}
	m.set("core.tree.probe_miss_ratio", missRatio, "ratio", int(downstream))
	m.set("core.tree.ns_per_dist_eval", float64(treeNs.Nanoseconds())/float64(sum.DistanceEvals), "ns", int(sum.DistanceEvals))
	var kdNs time.Duration
	for _, s := range tr.byName("kdtree.knn") {
		kdNs += s.dur()
	}
	m.set("kdtree.knn_us", tr.medianOf("kdtree.knn"), "us", n)
	m.set("kdtree.range_us", tr.medianOf("kdtree.range"), "us", n)
	m.set("kdtree.points_scanned_per_query", float64(kdStats.PointsScanned)/float64(n), "count", n)
	m.set("kdtree.ns_per_dist_eval", float64(kdNs.Nanoseconds())/float64(kdStats.PointsScanned), "ns", kdStats.PointsScanned)

	// Fabric calls seen at the tap under the tree's k-NN spans.
	parents := map[int]string{}
	for _, s := range tr.spans {
		parents[s.ID] = s.Name
	}
	var calls []time.Duration
	for _, s := range tr.byName("cluster.call") {
		if parents[s.Parent] == "core.tree.knn" {
			calls = append(calls, s.dur())
		}
	}
	callsPerQuery := float64(len(calls)) / float64(n)
	m.set("cluster.call_us", micros(calls), "us", len(calls))
	m.set("cluster.calls_per_query", callsPerQuery, "count", n)
	m.set("cluster.echo_us", tr.medianOf("cluster.echo"), "us", n)
	m.set("cluster.transit_share", callsPerQuery*tr.medianOf("cluster.echo")/knn, "ratio", n)

	// What the stack's query span spends outside its two children is
	// the benchmark's own glue, which facade.self_us is short by.
	self := selfTimes(tr.spans)
	var glue []time.Duration
	for _, s := range tr.byName("stack.query") {
		glue = append(glue, self[s.ID])
	}
	m.set("trace.stack_glue_us", micros(glue), "us", len(glue))
	m.set("trace.overhead_ratio", bare.Seconds()/spanned.Seconds(), "ratio", n)
	m.set("trace.replay_s", loop.Seconds(), "s", 1)

	// SearchBatch of traceBatch queries.
	var perQuery []time.Duration
	for lo := 0; lo+traceBatch <= n; lo += traceBatch {
		id := tr.around("facade.batch", 0, lo, func(int) {
			res, err := real.knnS.SearchBatch(ctx, queries[lo:lo+traceBatch])
			rep.op(err)
			for _, r := range res {
				rep.op(r.Err)
			}
		})
		perQuery = append(perQuery, tr.spans[id-1].dur()/traceBatch)
	}
	m.set("facade.batch64_us_per_query", micros(perQuery), "us", len(perQuery))

	// Allocations, one layer at a time over the first queries.
	few := queries[:min(n, traceAllocs)]
	coords := make([][]float64, len(few))
	distBefore := st.orc.distCalls.Load()
	countAllocs := func(name string, fn func(i int)) {
		a := mallocs(func() {
			for i := range few {
				fn(i)
			}
		})
		m.set(name, float64(a)/float64(len(few)), "count", len(few))
	}
	countAllocs("fastmap.map_allocs", func(i int) { coords[i] = st.orc.mapper.Map(few[i]) })
	m.set("fastmap.dist_calls_per_map", float64(st.orc.distCalls.Load()-distBefore)/float64(len(few)), "count", len(few))
	countAllocs("facade.allocs_per_query", func(i int) { real.knn(ctx, few[i]) })
	countAllocs("core.sched.allocs_per_query", func(i int) { st.sched.KNearest(ctx, coords[i], knnK) })
	bytesBefore := st.fabric.Stats().Bytes
	countAllocs("core.tree.allocs_per_query", func(i int) { st.tree.KNearestStats(ctx, coords[i], knnK) })
	m.set("cluster.bytes_per_query", float64(st.fabric.Stats().Bytes-bytesBefore)/float64(len(few)), "bytes", len(few))
	countAllocs("kdtree.allocs_per_query", func(i int) { kd.KNearest(coords[i], knnK) })
	countAllocs("cluster.allocs_per_call", func(int) { echoFabric.Call(ctx, cluster.ClientID, echoNode, echo) })
	// The process's allocations, so both ends of the wire.
	countAllocs("serve.allocs_per_req", func(i int) { wire.knn(ctx, few[i]) })
	pivots := st.orc.mapper.Snapshot().PivotA
	countAllocs("semdist.allocs_per_call", func(i int) { st.orc.metric.Distance(few[i], pivots[i%len(pivots)]) })

	// The wire must not change an answer (k-NN only: a range answer is
	// cut to the tenant's K on the wire).
	for _, qi := range sampled(queries) {
		a, _ := wire.knn(ctx, queries[qi])
		b, _ := real.knn(ctx, queries[qi])
		tally.note("wire against in-process", qi, sameAnswer(a, b))
	}
	ss := srv.Stats()
	m.set("serve.served", float64(ss.Served), "count", 1)
	m.set("serve.rejected_draining", float64(ss.RejectedDraining), "count", 1)
	m.set("serve.conns", float64(ss.Conns), "count", 1)
	return nil
}

// traceStore times the triple store's two operations.
func traceStore(m metrics, store *triple.Store) {
	n := store.Len()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		store.Get(triple.ID((i * 7919) % n))
	}
	m.set("triple.store_get_ns", float64(time.Since(t0).Nanoseconds())/float64(n), "ns", n)
	entries := store.Triples()
	fresh := triple.NewStore()
	t0 = time.Now()
	for i, t := range entries {
		fresh.Add(t, triple.Provenance{Doc: "synth", Seq: i})
	}
	m.set("triple.store_add_ns", float64(time.Since(t0).Nanoseconds())/float64(n), "ns", n)
}

// traceWrites replays write cycles into the stack's tree, unpaced: the
// tree's share of one BulkAdd and one Insert.
func traceWrites(ctx context.Context, m metrics, tr *tracer, rep *report, st *stack, writes []triple.Triple) {
	prov := triple.Provenance{Doc: "churn"}
	for c := 0; (c+1)*writePerCyc <= len(writes); c++ {
		chunk := writes[c*writePerCyc : (c+1)*writePerCyc]
		points := make([]kdtree.Point, len(chunk))
		for i, t := range chunk {
			points[i] = kdtree.Point{Coords: st.orc.mapper.Map(t), ID: uint64(st.store.Add(t, prov))}
		}
		tr.around("core.tree.bulkadd", 0, c, func(int) { rep.op(st.tree.BulkLoad(ctx, points[:writeBatch])) })
		for _, p := range points[writeBatch:] {
			tr.around("core.tree.insert", 0, c, func(int) { rep.op(st.tree.Insert(p)) })
		}
	}
	adds := durations(tr.byName("core.tree.bulkadd"))
	m.set("core.tree.bulkadd_us_per_point", micros(adds)/writeBatch, "us", len(adds))
	inserts := durations(tr.byName("core.tree.insert"))
	m.set("core.tree.insert_us", micros(inserts), "us", len(inserts))
}

// tracePersist saves and loads the real index once, and times the tree
// snapshot's own encoding apart from the rest of the file. (That the
// loaded index answers like the saved one is checked by drive.)
func tracePersist(ctx context.Context, cfg config, m metrics, rep *report, ix *semtree.Index, st *stack, in inputs) error {
	var buf bytes.Buffer
	t0 := time.Now()
	err := semtree.Save(&buf, ix)
	rep.op(err)
	if err != nil {
		return fmt.Errorf("save: %w", err)
	}
	m.set("persist.save_s", time.Since(t0).Seconds(), "s", 1)
	m.set("persist.bytes", float64(buf.Len()), "bytes", 1)

	opts, fabric := cfg.workload.options(cfg.seed, len(in.corpus))
	var loaded *semtree.Index
	var loadTime time.Duration
	allocs := mallocs(func() {
		t0 = time.Now()
		loaded, err = semtree.Load(bytes.NewReader(buf.Bytes()), opts)
		loadTime = time.Since(t0)
	})
	rep.op(err)
	if err != nil {
		if fabric != nil {
			fabric.Close()
		}
		return fmt.Errorf("load: %w", err)
	}
	m.set("persist.load_s", loadTime.Seconds(), "s", 1)
	m.set("persist.load_allocs_per_triple", float64(allocs)/float64(loaded.Len()), "count", loaded.Len())
	(&instance{ix: loaded, fabric: fabric}).close()

	snap, err := st.tree.Snapshot()
	if err != nil {
		return fmt.Errorf("tree snapshot: %w", err)
	}
	var tbuf bytes.Buffer
	t0 = time.Now()
	if err := core.EncodeSnapshot(&tbuf, snap); err != nil {
		return err
	}
	m.set("persist.tree_encode_s", time.Since(t0).Seconds(), "s", 1)
	t0 = time.Now()
	if _, err := core.DecodeSnapshot(&tbuf); err != nil {
		return err
	}
	m.set("persist.tree_decode_s", time.Since(t0).Seconds(), "s", 1)
	return ctx.Err()
}
