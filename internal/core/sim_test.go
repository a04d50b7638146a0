package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"semtree/internal/cluster/clustertest"
	"semtree/internal/kdtree"
)

// TestSimulation holds the whole tree to the fault contract
// (ARCHITECTURE.md, "Exactly once, and its bound"), one seeded sequence
// of operations at a time. Each subtest seed=N/<transport> runs on a
// fresh fabric of its own under the fault seam, InProc or TCP: nine
// partitions of capacity 250, RetryAttempts 40 on odd seeds and 1 on
// even ones. The seed runs simSteps operations — an InsertAll by one
// writer that spills the root, every one of simOps once in a drawn
// order, then draws — each under one fault: none, DropBefore,
// DropReplyAfter or Delay (fault). After each operation, with the faults off, check
// holds the tree to a flat model of what was written.
//
// A failure names its seed, transport, operation index and operation;
// go test -run 'TestSimulation/^seed=N$/tcp' ./internal/core/ replays
// it. Both transports must end every operation alike wherever its
// outcome does not hang on scheduling, and no goroutine may outlive the
// fabric. With every seed run, each operation must have met each armed
// fault, and each contract row (simRows) must have been reached, on
// some seed.
func TestSimulation(t *testing.T) {
	cov := newSimCoverage()
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			attempts := 40
			if seed%2 == 0 {
				attempts = 1
			}
			var ends [2][]simOutcome
			ran := 0
			for i, tp := range transports {
				t.Run(tp.name, func(t *testing.T) {
					ends[i] = simulate(t, seed, tp, attempts, cov, (*sim).run)
					ran++
				})
			}
			if ran == len(transports) && !slices.Equal(ends[0], ends[1]) {
				t.Errorf("seed %d: %s ends %+v,\n%s ends %+v", seed, transports[0].name, ends[0], transports[1].name, ends[1])
			}
			cov.runs += ran
		})
	}
	if cov.runs < 20*len(transports) {
		return // a replay of some seeds reaches only some cells
	}
	for _, op := range simOps {
		for _, f := range simFaults[1:] {
			for _, attempts := range []int{1, 40} {
				if !cov.cells[fmt.Sprintf("%s under %s, %d attempts", op, f, attempts)] {
					t.Errorf("%s never met an injected %s with %d attempts", op, f, attempts)
				}
			}
		}
		if !cov.cells[op+" under every reply lost"] {
			t.Errorf("%s never ran with every reply lost", op)
		}
	}
	for _, row := range simRows {
		if len(cov.rows[row]) == 0 {
			t.Errorf("the contract row %q was reached on no seed", row)
		}
	}
	for row, stages := range cov.rows {
		t.Logf("%s: %v", row, stages)
	}
}

// TestWritesLandOnceUnderLostReplies is a fixed script of the harness:
// every write path under lost replies alone, 5 % of them, with
// RetryAttempts 40. A write whose reply is lost after its handler ran
// is sent again and still lands once — a point by its ID at the leaf,
// an install by its Seq at the partition. The steps, in order: a
// BulkLoad into an empty tree, Rebalance, Snapshot → RestoreTree; then,
// on a fresh tree for each worker count, an InsertAll by 1 and by 4
// workers (the root spills under it) and a BulkLoad into that live
// tree. After each, check holds the tree to the flat model; each seed's
// steps end alike on both transports, and every step lost a reply on
// some seed.
func TestWritesLandOnceUnderLostReplies(t *testing.T) {
	script := []string{"BulkLoad/empty", "Rebalance", "Snapshot/RestoreTree", "InsertAll/1", "BulkLoad/live", "InsertAll/4", "BulkLoad/live"}
	lost := make([]bool, len(script)) // whether step k lost a reply, over every run
	cov := newSimCoverage()
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var ends [2][]simOutcome
			for i, tp := range transports {
				t.Run(tp.name, func(t *testing.T) {
					ends[i] = simulate(t, seed, tp, 40, cov, func(s *sim) {
						for k, op := range script {
							if strings.HasPrefix(op, "InsertAll") {
								s.fresh()
							}
							before := s.fabric.Counts().Lost
							if !s.step(k, op, "DropReplyAfter", clustertest.Faults{Seed: seed, DropReplyAfter: 0.05}) {
								return
							}
							lost[k] = lost[k] || s.fabric.Counts().Lost > before
							if strings.HasPrefix(op, "InsertAll") && s.tr.PartitionCount() != s.cfg.MaxPartitions {
								t.Errorf("seed %d, %s: %d partitions: the root never spilled", seed, op, s.tr.PartitionCount())
							}
						}
					})
				})
			}
			if !slices.Equal(ends[0], ends[1]) {
				t.Errorf("seed %d: %s ends %+v,\n%s ends %+v", seed, transports[0].name, ends[0], transports[1].name, ends[1])
			}
		})
	}
	for k, op := range script {
		if !lost[k] {
			t.Errorf("step %d (%s) lost no reply on any seed: vacuous", k, op)
		}
	}
}

// TestSpillLandsOnceUnderLostReplies is a fixed script of the harness:
// a spill lands once or not at all. With one attempt per call, an
// InsertAll by 1 or by 4 workers spills the root while 5 % of the
// replies are lost. Every write applied, whatever it returned, so check
// finds each point stored once: a spill install whose reply was lost
// resets its target and keeps that target's leaves local. Snapshot →
// RestoreTree then answers as the flat scan too. Twenty seeds run on
// both transports; with one writer both end alike, and each worker
// count lost a reply on some seed.
func TestSpillLandsOnceUnderLostReplies(t *testing.T) {
	cov := newSimCoverage()
	for seed := int64(1); seed <= 20; seed++ {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				var ends [2][]simOutcome
				for i, tp := range transports {
					t.Run(tp.name, func(t *testing.T) {
						ends[i] = simulate(t, seed, tp, 1, cov, func(s *sim) {
							if s.step(0, fmt.Sprintf("InsertAll/%d", workers), "DropReplyAfter", clustertest.Faults{Seed: seed, DropReplyAfter: 0.05}) {
								s.step(1, "Snapshot/RestoreTree", "none", clustertest.Faults{})
							}
						})
					})
				}
				if !slices.Equal(ends[0], ends[1]) {
					t.Errorf("%s ends %+v, %s %+v", transports[0].name, ends[0], transports[1].name, ends[1])
				}
			})
		}
	}
	for _, op := range []string{"InsertAll/1", "InsertAll/4"} {
		if !cov.cells[op+" under DropReplyAfter, 1 attempts"] {
			t.Errorf("%s lost no reply on any seed: vacuous", op)
		}
	}
}

// simOps are the operations a seed draws from.
var simOps = []string{
	"Insert",                    // 25 points, one Insert each
	"InsertAll/1",               // 300 points, one worker
	"InsertAll/4",               // 300 points, four workers
	"BulkLoad/empty",            // 1 000 points into a new tree: a frontier on eight partitions and the root's trunk
	"BulkLoad/live",             // 300 points merged into the tree
	"query",                     // k-NN under both protocols, then range (scanMismatch)
	"Rebalance",                 // every data partition a target
	"Snapshot/RestoreTree",      // the restored tree replaces the tree
	"Encode/Decode/RestoreTree", // the same through the snapshot's column stream
}

// simFaults are the faults an operation runs under; all but the first
// inject something.
var simFaults = []string{"none", "DropBefore", "DropReplyAfter", "Delay"}

// simRows are the contract rows every run of the seeds must reach: a
// write that returned an error applied; a bulk load into an empty tree
// that lost a reply was undone, storing none of its points; a copy no
// link reaches, left by a reset that never arrived, was removed by
// Rebalance; a tree with a box wider than its points restored exact.
// A fifth, a dangling link that makes Rebalance refuse and change
// nothing, is checked wherever a seed reaches it (dangling), but it
// needs a root graft that lost its one reply after all eight frontier
// installs answered — a few percent of the bulk loads into an empty
// tree under lost replies with one attempt — and seeds 1–20 reach none,
// so TestRebalanceRefusesDanglingLinks builds one.
var simRows = []string{"lost reply applied", "bulk load undone", "orphan repaired", "dilated box restored exact"}

// simSteps is the number of operations a seed runs.
const simSteps = 12

func newSimCoverage() *simCoverage {
	return &simCoverage{cells: make(map[string]bool), rows: make(map[string][]string)}
}

// simCoverage is what the seeds reached, over every subtest.
type simCoverage struct {
	cells map[string]bool     // "op under fault, n attempts" where the fault injected, "op under every reply lost"
	rows  map[string][]string // contract row → the stages that reached it
	runs  int                 // subtests that ran to the end
}

// simOutcome is how one operation ended: its error class, Len() and
// the copies the partitions hold beyond one per ID.
type simOutcome struct {
	op, class string
	n, extra  int
}

// sim runs one seed on one fabric.
type sim struct {
	t      *testing.T
	seed   int64
	name   string // the transport's
	fabric *clustertest.Fabric
	cov    *simCoverage

	r       *rand.Rand
	cfg     Config
	tr      *Tree
	pool    []kdtree.Point // every point drawn; point i has ID i
	queries [][]float64

	// model maps the ID of every point written to the tree to whether
	// it must be stored (its write returned nil, or apply knows it
	// landed): such a point is stored exactly once, any other written
	// at most once, and no other ID at all.
	model  map[uint64]bool
	stored []kdtree.Point // the points the last check reached

	// wide is set once a write failed while a message was dropped before
	// delivery: it may have been a forward, which leaves the boxes its
	// sender grew wider than the points below them. dilated is set once
	// a check found such a box. A tree fresh from Rebalance or
	// RestoreTree is exact again.
	wide, dilated bool

	parity bool // the outcomes so far do not hang on scheduling
	ends   []simOutcome
}

// simulate runs script on a sim of one seed on tp's fabric under the
// fault seam, RetryAttempts attempts, from an empty tree, and returns
// how its operations ended. No goroutine may outlive the fabric, and a
// failure logs the command that replays the subtest.
func simulate(t *testing.T, seed int64, tp transport, attempts int, cov *simCoverage, script func(*sim)) []simOutcome {
	base := runtime.NumGoroutine()
	s := &sim{t: t, seed: seed, name: tp.name, fabric: clustertest.New(tp.new(), clustertest.Faults{}), cov: cov, r: rand.New(rand.NewSource(seed)), parity: true}
	defer func() {
		s.fabric.Close()
		waitGoroutines(t, base)
		if t.Failed() {
			t.Logf("replay: go test -run '^%s$' ./internal/core/", strings.ReplaceAll(t.Name(), "/", "$/^"))
		}
	}()
	s.cfg = Config{Dim: 3, BucketSize: 8, PartitionCapacity: 250, MaxPartitions: 9, Fabric: s.fabric, RetryAttempts: attempts}
	for range 5 {
		s.queries = append(s.queries, randomPoints(s.r, 1, 3)[0].Coords)
	}
	s.fresh()
	script(s)
	return s.ends
}

// run is TestSimulation's script: drawn operations under drawn faults.
func (s *sim) run() {
	// A load by one writer that spills the root; every operation once,
	// in a drawn order, under a fault walked rather than drawn, so that
	// any four seeds of one parity meet every operation with every
	// fault; then draws.
	type plan struct {
		op    string
		fault int // into simFaults; -1 draws one
	}
	plans := []plan{{"InsertAll/1", -1}}
	for _, k := range s.r.Perm(len(simOps)) {
		plans = append(plans, plan{simOps[k], (k + int(s.seed)/2) % len(simFaults)})
	}
	for len(plans) < simSteps {
		plans = append(plans, plan{simOps[s.r.Intn(len(simOps))], -1})
	}
	for i, p := range plans {
		fault, faults := s.fault(p.fault)
		if !s.step(i, p.op, fault, faults) {
			return
		}
	}
}

// fresh replaces the tree with a new, empty one.
func (s *sim) fresh() {
	s.tr, s.model, s.stored = mustTree(s.t, s.cfg), make(map[uint64]bool), nil
	s.exact()
}

// exact marks the tree as one whose boxes must all be exact.
func (s *sim) exact() { s.wide, s.dilated = false, false }

// take draws n new points.
func (s *sim) take(n int) []kdtree.Point {
	pts := randomPoints(s.r, n, 3)
	for i := range pts {
		pts[i].ID = uint64(len(s.pool) + i)
	}
	s.pool = append(s.pool, pts...)
	return pts
}

// fault returns fault k of simFaults, or a drawn one when k < 0, and
// its schedule. DropBefore drops 10 or 30 % of the calls, and
// DropReplyAfter loses 10 or 30 % of the replies — every one on seeds
// 2, 4, 6, 16, 18 and 20, where RetryAttempts is 1, so that each
// operation meets that too (with forty attempts, nested hops that all
// fail would multiply). Delay is a nanosecond: any delay parks the call
// on a timer, which lets concurrent writers overtake it, and a longer
// one costs a timer tick, up to a millisecond, every call.
func (s *sim) fault(k int) (string, clustertest.Faults) {
	if k < 0 {
		k = s.r.Intn(len(simFaults))
	}
	f := clustertest.Faults{Seed: s.r.Int63()}
	rate := []float64{0.1, 0.3}[s.r.Intn(2)]
	switch simFaults[k] {
	case "DropBefore":
		f.DropBefore = rate
	case "DropReplyAfter":
		f.DropReplyAfter = rate
		if s.cfg.RetryAttempts == 1 && (s.seed/8)%2 == 0 {
			f.DropReplyAfter = 1
		}
	case "Delay":
		f.Delay = time.Nanosecond
	}
	return simFaults[k], f
}

// step runs operation i under its fault, then checks the tree it
// leaves, disarmed. It reports whether the seed goes on.
func (s *sim) step(i int, op, fault string, faults clustertest.Faults) bool {
	stage := fmt.Sprintf("seed %d, %s, operation %d (%s under %s)", s.seed, s.name, i, op, fault)
	before := s.fabric.Counts()
	s.fabric.Arm(faults)
	failed, err := s.apply(op, fault, stage)
	s.fabric.Arm(clustertest.Faults{})
	after := s.fabric.Counts()
	dropped := after.Dropped > before.Dropped
	if map[string]bool{"DropBefore": dropped, "DropReplyAfter": after.Lost > before.Lost, "Delay": after.Runs > before.Runs}[fault] {
		s.cov.cells[fmt.Sprintf("%s under %s, %d attempts", op, fault, s.cfg.RetryAttempts)] = true
		if faults.DropReplyAfter == 1 {
			s.cov.cells[op+" under every reply lost"] = true
		}
	}
	out := simOutcome{op: op, class: errClass(err)}
	if out.class == "untyped" || err != nil && s.cfg.RetryAttempts > 1 {
		s.t.Errorf("%s: an untyped error, or one with retries to spare: %v", stage, err)
	}
	if err != nil && dropped && op != "query" && !strings.HasSuffix(op, "RestoreTree") {
		s.wide = true // a query or a failed restore leaves the tree as it was
	}
	// A reset that never reached its target leaves a copy no link
	// reaches: one lost before delivery, or one a failed Rebalance never
	// sent, having stopped at an earlier failure.
	goOn := s.check(stage, dropped || op == "Rebalance" && err != nil, &out)
	if fault == "DropReplyAfter" && slices.ContainsFunc(failed, func(p kdtree.Point) bool {
		_, ok := slices.BinarySearchFunc(s.stored, p.ID, func(q kdtree.Point, id uint64) int { return cmp.Compare(q.ID, id) })
		return ok
	}) {
		s.cov.reach("lost reply applied", stage)
	}
	if op == "BulkLoad/empty" && fault == "DropReplyAfter" && err != nil && len(s.stored) == 0 && goOn {
		s.cov.reach("bulk load undone", stage)
	}
	if i == 0 && err == nil && s.tr.PartitionCount() != s.cfg.MaxPartitions {
		s.t.Errorf("%s: %d partitions: the root never spilled", stage, s.tr.PartitionCount())
	}
	// With one attempt, concurrent calls on one edge take each other's
	// faults in the order the scheduler sends them, and a layout built
	// by concurrent writers moves every later call's sequence number.
	if s.cfg.RetryAttempts == 1 && (op == "InsertAll/4" || op == "query" && fault != "none" && fault != "Delay") {
		s.parity = false
	}
	if s.parity {
		s.ends = append(s.ends, out)
	}
	return goOn
}

// apply runs one operation on the tree under fault and returns its
// error and the points of a write that returned one. An insert under
// lost replies alone lands every point, whatever it returns: every
// message it sent was delivered.
func (s *sim) apply(op, fault, stage string) (failed []kdtree.Point, err error) {
	landed := fault == "DropReplyAfter" && strings.HasPrefix(op, "Insert")
	write := func(pts []kdtree.Point, err error) error {
		for _, p := range pts {
			s.model[p.ID] = err == nil || landed
		}
		if err != nil {
			failed = append(failed, pts...)
		}
		return err
	}
	switch op {
	case "Insert":
		for _, p := range s.take(25) {
			err = cmp.Or(err, write([]kdtree.Point{p}, s.tr.Insert(p)))
		}
	case "InsertAll/1", "InsertAll/4":
		pts := s.take(300)
		err = write(pts, s.tr.InsertAll(pts, int(op[len(op)-1]-'0')))
	case "BulkLoad/empty":
		s.fresh()
		pts := s.take(1000)
		err = write(pts, s.tr.BulkLoad(detached, pts))
	case "BulkLoad/live":
		pts := s.take(300)
		err = write(pts, s.tr.BulkLoad(detached, pts))
	case "query":
		if len(s.stored) < 10 { // too few for scanMismatch's range radius
			return nil, nil
		}
		err = scanMismatch(s.tr, s.stored, s.queries)
	case "Rebalance":
		if err = s.tr.Rebalance(); err != nil {
			// A failed Rebalance may leave any point unreached: its re-load
			// may fail, by contract, and a root reset that applied but lost
			// its reply is taken for one that changed nothing, so nothing
			// is re-loaded.
			for id := range s.model {
				s.model[id] = false
			}
			return nil, err
		}
		s.exact()
	case "Snapshot/RestoreTree", "Encode/Decode/RestoreTree":
		snap, err := s.tr.Snapshot()
		if err != nil {
			return nil, err
		}
		if op == "Encode/Decode/RestoreTree" {
			var buf bytes.Buffer
			if err := EncodeSnapshot(&buf, snap); err != nil {
				s.t.Fatalf("%s: %v", stage, err)
			}
			if snap, err = DecodeSnapshot(&buf); err != nil {
				s.t.Fatalf("%s: %v", stage, err)
			}
		}
		restored, err := RestoreTree(s.cfg, snap)
		if err != nil {
			return nil, err
		}
		s.t.Cleanup(func() { restored.Close() })
		if s.dilated {
			s.cov.reach("dilated box restored exact", stage)
		}
		s.tr = restored
		s.exact()
	}
	return failed, err
}

// check holds the tree to the contract, with the faults off, and fills
// in out's Len() and extra copies. orphansOK is whether the operation
// may have left a target's copy no link reaches, which Rebalance must
// then remove. It reports whether the seed goes on: a dangling link,
// or a broken contract, ends it.
func (s *sim) check(stage string, orphansOK bool, out *simOutcome) bool {
	t := s.t
	t.Helper()
	snap := liveSnapshot(t, s.tr)
	held := make(map[uint64]int) // ID → the copies the partitions' buckets hold
	n := 0
	for _, ps := range snap.Parts {
		for i := range ps.Nodes {
			if nd := &ps.Nodes[i]; nd.Leaf && !nd.Moved {
				for _, slot := range nd.Slots {
					held[ps.IDs[slot]]++
					n++
				}
			}
		}
	}
	out.n, out.extra = s.tr.Len(), n-len(held)
	if s.tr.Len() != n {
		t.Errorf("%s: Len = %d, the partitions hold %d", stage, s.tr.Len(), n)
	}
	reach, err := snap.pointsUnder(kdtree.Ref{})
	if err != nil {
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%s: the walk of the tree: %v", stage, err)
		}
		s.dangling(stage)
		return false
	}
	seen := make(map[uint64]bool, len(reach))
	for _, p := range reach {
		if _, written := s.model[p.ID]; seen[p.ID] || !written || !slices.Equal(p.Coords, s.pool[p.ID].Coords) {
			t.Errorf("%s: point %d reached twice (%v), or never written (%v), or at %v, written at %v",
				stage, p.ID, seen[p.ID], !written, p.Coords, s.pool[p.ID].Coords)
		}
		seen[p.ID] = true
	}
	for id, ok := range s.model {
		if ok && !seen[id] {
			t.Errorf("%s: point %d was written without an error but is not stored", stage, id)
		}
	}
	s.stored = slices.SortedFunc(slices.Values(reach), func(a, b kdtree.Point) int { return cmp.Compare(a.ID, b.ID) })
	if len(reach) >= 10 {
		if err := scanMismatch(s.tr, reach, s.queries); err != nil {
			t.Errorf("%s: %v", stage, err)
		}
	}
	if err := inexactBox(snap); err != nil {
		if !s.wide {
			t.Errorf("%s: %v", stage, err)
		}
		s.dilated = true
	}
	orphans := n - len(reach)
	if orphans == 0 {
		if err := cmp.Or(snap.Validate(), validArenas(snap)); err != nil {
			t.Errorf("%s: the snapshot does not validate: %v", stage, err)
		}
	}
	if orphans > 0 && !t.Failed() {
		if !orphansOK {
			t.Fatalf("%s: %d copies no link reaches, and no reset can have failed to arrive", stage, orphans)
		}
		if err := s.tr.Rebalance(); err != nil {
			t.Fatalf("%s: Rebalance over %d orphans: %v", stage, orphans, err)
		}
		s.exact()
		s.cov.reach("orphan repaired", stage)
		return s.check(stage+", then Rebalance", false, out)
	}
	return !t.Failed()
}

// dangling holds a tree whose walk meets a dangling link to its one
// outcome: Rebalance refuses it, typed, and changes nothing.
func (s *sim) dangling(stage string) {
	var before [][]byte
	for _, p := range s.tr.parts {
		before = append(before, partitionBytes(s.t, p))
	}
	n := s.tr.Len()
	if err := s.tr.Rebalance(); !errors.Is(err, ErrSnapshotCorrupt) {
		s.t.Errorf("%s: Rebalance over a dangling link: %v, want ErrSnapshotCorrupt", stage, err)
	}
	if s.tr.Len() != n || !slices.EqualFunc(s.tr.parts, before, func(p *partition, b []byte) bool { return bytes.Equal(partitionBytes(s.t, p), b) }) {
		s.t.Errorf("%s: the refused Rebalance changed the tree", stage)
	}
	s.cov.reach("dangling link refused", stage)
}

// reach records that stage reached a contract row.
func (c *simCoverage) reach(row, stage string) { c.rows[row] = append(c.rows[row], stage) }
