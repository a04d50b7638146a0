package core

// Tests for what a query hop carries: the work it accounts, pinned to
// fixed sums, and the replies it sends back.

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/cluster/clustertest"
	"semtree/internal/kdtree"
)

// hopSums is the sum of every ExecStats counter over a query set.
type hopSums struct {
	Nodes, Buckets, Dists, Parts, Msgs, Misses int64
}

func (s *hopSums) add(st ExecStats) {
	s.Nodes += st.NodesVisited
	s.Buckets += st.BucketsScanned
	s.Dists += st.DistanceEvals
	s.Parts += int64(st.Partitions)
	s.Msgs += st.FabricMessages
	s.Misses += st.ProbeMisses
}

// hopTree is one fixed, seeded layout the hop tests query: its points,
// its config less the fabric, how it is built, and its queries.
type hopTree struct {
	name    string
	pts     []kdtree.Point
	cfg     Config
	bulk    bool
	queries [][]float64
}

// hopTrees returns the two layouts: 1 500 random 4-d points grown by
// one-at-a-time inserts over nine partitions, and 3 000 clustered 8-d
// points bulk-built over five — 48 queries each, from the same generators.
func hopTrees() []hopTree {
	grown := rand.New(rand.NewSource(89))
	bulk := rand.New(rand.NewSource(97))
	trees := []hopTree{
		{name: "grown", pts: randomPoints(grown, 1500, 4), cfg: Config{Dim: 4, BucketSize: 8, PartitionCapacity: 64, MaxPartitions: 9}},
		{name: "bulk", pts: clusteredPoints(bulk, 3000, 8, 6), cfg: Config{Dim: 8, BucketSize: 16, PartitionCapacity: 750, MaxPartitions: 5}, bulk: true},
	}
	for _, q := range randomPoints(grown, 48, 4) {
		trees[0].queries = append(trees[0].queries, q.Coords)
	}
	for _, q := range clusteredPoints(bulk, 48, 8, 6) {
		trees[1].queries = append(trees[1].queries, q.Coords)
	}
	return trees
}

// build builds the layout on fabric.
func (h hopTree) build(t *testing.T, fabric cluster.Fabric) *Tree {
	t.Helper()
	cfg := h.cfg
	cfg.Fabric = fabric
	tr := mustTree(t, cfg)
	var err error
	if h.bulk {
		err = tr.BulkLoad(context.Background(), h.pts)
	} else {
		err = tr.InsertAll(h.pts, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	if tr.PartitionCount() != cfg.MaxPartitions {
		t.Fatalf("%s: %d partitions, want %d", h.name, tr.PartitionCount(), cfg.MaxPartitions)
	}
	return tr
}

// hopQueries runs every query of h on tr — k-NN at K = 10 under each
// protocol, and range at the distance of the 30th nearest point — and
// calls each with the query's stats.
func hopQueries(t *testing.T, tr *Tree, h hopTree, each func(st ExecStats)) {
	t.Helper()
	ctx := context.Background()
	for _, q := range h.queries {
		for _, p := range []Protocol{ProtocolSequential, ProtocolFanOut} {
			_, st, err := tr.knnResolved(ctx, q, 10, p, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			each(st)
		}
		_, st, err := tr.RangeSearchStats(ctx, q, flatScan(h.pts, q, -1)[29].Dist)
		if err != nil {
			t.Fatal(err)
		}
		each(st)
	}
}

// hopGolden is every ExecStats counter summed over hopTrees' queries,
// by layout and protocol, as the protocol that shipped each neighbour's
// coordinates and echoed the merged set back measured it. What a hop
// carries may change; the work a query does and the messages it sends
// may not.
var hopGolden = map[string]hopSums{
	"bulk/parallel":    {Nodes: 6620, Buckets: 2523, Dists: 29645, Parts: 184, Msgs: 184, Misses: 38},
	"bulk/range":       {Nodes: 6083, Buckets: 2412, Dists: 28329, Parts: 184, Msgs: 184, Misses: 0},
	"bulk/sequential":  {Nodes: 6409, Buckets: 2440, Dists: 28682, Parts: 184, Msgs: 184, Misses: 43},
	"grown/parallel":   {Nodes: 3024, Buckets: 616, Dists: 3665, Parts: 189, Msgs: 189, Misses: 46},
	"grown/range":      {Nodes: 3535, Buckets: 1044, Dists: 6144, Parts: 245, Msgs: 245, Misses: 0},
	"grown/sequential": {Nodes: 2436, Buckets: 592, Dists: 3527, Parts: 200, Msgs: 200, Misses: 66},
}

// TestHopAccountingGolden holds every ExecStats field but Wall to the
// golden sums, on InProc and on TCP: the same work, the same messages
// and the same probe misses, whatever the hop carries.
func TestHopAccountingGolden(t *testing.T) {
	fabrics := map[string]func() cluster.Fabric{
		"inproc": func() cluster.Fabric { return cluster.NewInProc(cluster.InProcOptions{}) },
		"tcp":    func() cluster.Fabric { return cluster.NewTCP() },
	}
	for fname, newFabric := range fabrics {
		got := make(map[string]hopSums)
		for _, h := range hopTrees() {
			fabric := newFabric()
			tr := h.build(t, fabric)
			hopQueries(t, tr, h, func(st ExecStats) {
				s := got[h.name+"/"+st.Protocol]
				s.add(st)
				got[h.name+"/"+st.Protocol] = s
			})
			tr.Close()
			fabric.Close()
		}
		if !maps.Equal(got, hopGolden) {
			for _, k := range slices.Sorted(maps.Keys(got)) {
				s := got[k]
				t.Logf("%q: {Nodes: %d, Buckets: %d, Dists: %d, Parts: %d, Msgs: %d, Misses: %d},", k, s.Nodes, s.Buckets, s.Dists, s.Parts, s.Msgs, s.Misses)
			}
			t.Errorf("%s: the query accounting moved from the golden sums", fname)
		}
	}
}

// replyChecker is a fabric that checks every query reply on its way
// back: no entry carries coordinates, and no k-NN entry repeats an
// entry of the seed its request carried. It counts the downstream k-NN
// replies that came back empty.
type replyChecker struct {
	cluster.Fabric
	t     *testing.T
	empty atomic.Int64
}

func (f *replyChecker) Call(ctx context.Context, from, to cluster.NodeID, req any) (any, error) {
	resp, err := f.Fabric.Call(ctx, from, to, req)
	if err != nil {
		return resp, err
	}
	switch r := resp.(type) {
	case *knnResp:
		seed := req.(*knnReq).Rs // still the seed: the caller is blocked here
		for _, n := range r.Rs {
			if n.Point.Coords != nil {
				f.t.Errorf("a k-NN reply to %d carries point %d's coordinates", from, n.Point.ID)
			}
			if slices.ContainsFunc(seed, func(s kdtree.Neighbor) bool { return sameNeighbor(s, n) }) {
				f.t.Errorf("a k-NN reply to %d repeats seed entry (%d, %v)", from, n.Point.ID, n.Dist)
			}
		}
		if from != cluster.ClientID && len(r.Rs) == 0 {
			f.empty.Add(1)
		}
	case rangeResp:
		for _, n := range r.Neighbors {
			if n.Point.Coords != nil {
				f.t.Errorf("a range reply to %d carries point %d's coordinates", from, n.Point.ID)
			}
		}
	}
	return resp, err
}

// TestHopRepliesCarryOnlyFinds: on InProc, on the fault seam that
// delivers by value, and on TCP, a partition's k-NN reply holds only
// what it found beyond the seed it was sent, no reply carries a
// coordinate — the caller's own answer included — and a query's probe
// misses are exactly its downstream replies that came back empty.
func TestHopRepliesCarryOnlyFinds(t *testing.T) {
	fabrics := map[string]func() cluster.Fabric{
		"inproc": func() cluster.Fabric { return cluster.NewInProc(cluster.InProcOptions{}) },
		"seam": func() cluster.Fabric {
			return clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{})
		},
		"tcp": func() cluster.Fabric { return cluster.NewTCP() },
	}
	for fname, newFabric := range fabrics {
		for _, h := range hopTrees() {
			inner := newFabric()
			fabric := &replyChecker{Fabric: inner, t: t}
			tr := h.build(t, fabric)
			misses := int64(0)
			hopQueries(t, tr, h, func(st ExecStats) {
				if empty := fabric.empty.Swap(0); st.ProbeMisses != empty {
					t.Errorf("%s/%s/%s: %d probe misses, %d empty replies", fname, h.name, st.Protocol, st.ProbeMisses, empty)
				}
				misses += st.ProbeMisses
			})
			if misses == 0 {
				t.Errorf("%s/%s: no probe miss: no empty reply was checked", fname, h.name)
			}
			tr.Close()
			inner.Close()
		}
	}
}

// TestAbandonedHopsKeepAnswersExact: a k-NN reply is pooled memory that
// its last reader puts back (knnResp), and one that reaches no one is
// left to the collector. Eight goroutines query nine partitions at once
// under both protocols, each through a KNNScratch of its own — on TCP,
// and on InProc under the fault seam losing 5 % of replies after their
// handler ran — and a third of the queries run under deadlines short
// enough to abandon hops in flight. Every answer that completes must be
// the flat scan's, IDs and distance bits, and every failure a context
// error or a transient one: a reply released before its finds were
// merged is filled over by another query's.
func TestAbandonedHopsKeepAnswersExact(t *testing.T) {
	const k, goroutines, each = 6, 8, 24
	r := rand.New(rand.NewSource(101))
	pts := clusteredPoints(r, 2000, 4, 5)
	queries := make([][]float64, goroutines*each)
	want := make([][]kdtree.Neighbor, len(queries))
	for i := range queries {
		queries[i] = clusteredPoints(r, 1, 4, 5)[0].Coords
		want[i] = flatScan(pts, queries[i], -1)[:k]
	}
	protocols := []Protocol{ProtocolSequential, ProtocolFanOut}
	for _, fc := range []struct {
		name   string
		fabric func() cluster.Fabric
		faults clustertest.Faults // armed once the tree is built
	}{
		{"tcp", func() cluster.Fabric { return cluster.NewTCP() }, clustertest.Faults{}},
		{"seam", func() cluster.Fabric {
			return clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{})
		}, clustertest.Faults{Seed: 1, DropReplyAfter: 0.05}},
	} {
		t.Run(fc.name, func(t *testing.T) {
			fabric := fc.fabric()
			defer fabric.Close()
			tr := mustTree(t, Config{Dim: 4, BucketSize: 8, PartitionCapacity: len(pts) / 8, MaxPartitions: 9, Fabric: fabric})
			if err := tr.BulkLoad(context.Background(), pts); err != nil {
				t.Fatal(err)
			}
			if n := tr.PartitionCount(); n != 9 {
				t.Fatalf("%d partitions, want 9", n)
			}
			// The deadlines scale with a query's time on this machine:
			// uniform up to twice the mean of a sequential pass.
			start := time.Now()
			for i, q := range queries {
				for _, p := range protocols {
					got, _, err := tr.knnResolved(context.Background(), q, k, p, false, nil)
					if err == nil {
						err = sameAnswer(got, want[i])
					}
					if err != nil {
						t.Fatalf("query %d, protocol %d, unhurried: %v", i, p, err)
					}
				}
			}
			mean := time.Since(start) / time.Duration(len(queries)*len(protocols))
			seam, _ := fabric.(*clustertest.Fabric)
			if seam != nil {
				seam.Arm(fc.faults)
			}

			var completed, abandoned, lost atomic.Int64
			var wg sync.WaitGroup
			for g := range goroutines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var sc KNNScratch
					rg := rand.New(rand.NewSource(int64(g)))
					for i := g * each; i < (g+1)*each; i++ {
						for _, p := range protocols {
							ctx, cancel := context.WithCancel(context.Background())
							if i%3 == 0 {
								ctx, cancel = context.WithTimeout(context.Background(), time.Duration(rg.Int63n(int64(2*mean)+1)))
							}
							got, _, err := tr.knnResolved(ctx, queries[i], k, p, false, &sc)
							cancel()
							switch {
							case err == nil:
								completed.Add(1)
								if err := sameAnswer(got, want[i]); err != nil {
									t.Errorf("query %d, protocol %d: %v", i, p, err)
								}
							case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
								abandoned.Add(1)
							case errors.Is(err, cluster.ErrTransient):
								lost.Add(1)
							default:
								t.Errorf("query %d, protocol %d: %v, want a context error or a transient one", i, p, err)
							}
						}
					}
				}()
			}
			wg.Wait()
			t.Logf("%d answers, %d abandoned, %d lost; %v per unhurried query", completed.Load(), abandoned.Load(), lost.Load(), mean)
			if completed.Load() == 0 || abandoned.Load() == 0 {
				t.Errorf("%d answers and %d abandoned queries: the test needs both", completed.Load(), abandoned.Load())
			}
			if seam != nil && seam.Counts().Injected() == 0 {
				t.Error("no reply was lost")
			}
		})
	}
}
