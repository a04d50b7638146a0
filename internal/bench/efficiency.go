package bench

import (
	"context"
	"fmt"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/core"
	"semtree/internal/kdtree"
)

// buildDistributed grows a core.Tree over the given fabric point by
// point (§III-B.1, one message per insert and per forward) with the
// paper's partitioning policy: capacity (M−1)·Bs makes the root spill
// when ~M−1 leaves exist, leaving it the shallow 2M−1-node routing
// trunk of §III-C.
func buildDistributed(pts []kdtree.Point, m int, p Params, fabric cluster.Fabric, unbalanced bool) (*core.Tree, error) {
	capacity := 0
	if m > 1 {
		capacity = (m - 1) * p.BucketSize
	}
	tr, err := core.New(core.Config{
		Dim:               p.Dims,
		BucketSize:        p.BucketSize,
		PartitionCapacity: capacity,
		MaxPartitions:     m,
		Fabric:            fabric,
		Unbalanced:        unbalanced,
	})
	if err != nil {
		return nil, err
	}
	if err := tr.InsertAll(pts, 1); err != nil {
		tr.Close()
		return nil, err
	}
	return tr, nil
}

// clockedBuild grows a tree with buildDistributed over a fresh rank
// clock and returns the virtual time at which its last rank finished.
func clockedBuild(pts []kdtree.Point, m int, p Params, unbalanced bool) (time.Duration, error) {
	clock := newRankClock(p.Latency)
	defer clock.Close()
	tr, err := buildDistributed(pts, m, p, clock, unbalanced)
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	return clock.makespan, nil
}

// Fig3 regenerates Figure 3: index building time vs number of points
// for 1 balanced partition, 3/5/9 partitions, and 1 totally unbalanced
// partition. Build time is the rank clock's makespan, so partition
// ranks overlap as on the paper's 8-node cluster.
func Fig3(ctx context.Context, p Params) (*Figure, error) {
	p = p.withDefaults()
	data, err := makeSweep(maxSize(p.Sizes), 0, p.Dims, p.Seed)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig3", Title: "Index building time",
		XLabel: "points", YLabel: "virtual seconds",
		Notes: []string{
			"rank clock: one message per insert and per forward, forwards one-way, " +
				fmt.Sprintf("rank service = measured handler self time; per-hop latency %v", p.Latency),
			fmt.Sprintf("partition capacity (M-1)*Bs with Bs=%d", p.BucketSize),
		},
	}
	// Handler durations feed the rank clock, so allocator/scheduler
	// cold starts would show up as time: build twice, keep the
	// steady-state (minimum) measurement.
	build := func(pts []kdtree.Point, m int, unbalanced bool) (time.Duration, error) {
		best, err := clockedBuild(append([]kdtree.Point(nil), pts...), m, p, unbalanced)
		if err != nil {
			return 0, err
		}
		again, err := clockedBuild(pts, m, p, unbalanced)
		if err != nil {
			return 0, err
		}
		if again < best {
			best = again
		}
		return best, nil
	}
	for _, m := range p.Partitions {
		name := fmt.Sprintf("%d partitions", m)
		if m == 1 {
			name = "1 partition (balanced)"
		}
		s := Series{Name: name}
		for _, n := range p.Sizes {
			d, err := build(data.prefix(n), m, false)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, d.Seconds())
		}
		fig.Series = append(fig.Series, s)
	}
	s := Series{Name: "1 partition (totally unbalanced)"}
	for _, n := range p.Sizes {
		d, err := build(data.prefixChainWorkload(n), 1, true)
		if err != nil {
			return nil, err
		}
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, d.Seconds())
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// Fig4 regenerates Figure 4: sequential k-nearest time (K=3) vs number
// of points, balanced vs totally unbalanced (chain) tree.
func Fig4(ctx context.Context, p Params) (*Figure, error) {
	p = p.withDefaults()
	data, err := makeSweep(maxSize(p.Sizes), p.Queries, p.Dims, p.Seed)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig4", Title: fmt.Sprintf("Sequential k-nearest time (K=%d)", p.K),
		XLabel: "points", YLabel: "µs/query", YFmt: "%.2f",
		Notes: []string{fmt.Sprintf("mean over %d queries; bucket size %d", p.Queries, p.BucketSize)},
	}
	balanced := Series{Name: "balanced"}
	chain := Series{Name: "totally unbalanced (chain)"}
	for _, n := range p.Sizes {
		bt, err := kdtree.BulkLoad(data.prefix(n), p.Dims, p.BucketSize)
		if err != nil {
			return nil, err
		}
		ct, err := kdtree.BuildChain(data.prefixChainWorkload(n), p.Dims, p.BucketSize)
		if err != nil {
			return nil, err
		}
		balanced.X = append(balanced.X, float64(n))
		balanced.Y = append(balanced.Y, meanQueryMicros(data.queries, func(q []float64) {
			bt.KNearest(q, p.K)
		}))
		chain.X = append(chain.X, float64(n))
		chain.Y = append(chain.Y, meanQueryMicros(data.queries, func(q []float64) {
			ct.KNearest(q, p.K)
		}))
	}
	fig.Series = append(fig.Series, balanced, chain)
	return fig, nil
}

// Fig5 regenerates Figure 5: distributed k-nearest time (K=3) vs number
// of points for 1/3/5/9 partitions. Per-query cost is measured compute
// time plus messages × latency (the k-nearest protocol is a sequential
// cross-partition traversal, §III-B.3).
func Fig5(ctx context.Context, p Params) (*Figure, error) {
	return distributedQueryFigure(p, "fig5",
		fmt.Sprintf("Distributed k-nearest time (K=%d)", p.withDefaults().K),
		func(tr *core.Tree, q []float64, p Params) error {
			// The paper's figure measures the *sequential* protocol
			// (§III-B.3). KNearest now defaults to the self-tuning
			// ProtocolAuto, so the protocol is pinned explicitly — the
			// serial-hop latency model below would mis-charge the
			// fan-out's overlapped hops.
			sched := tr.NewScheduler(core.SchedulerConfig{Protocol: core.ProtocolSequential})
			_, _, err := sched.KNearest(ctx, q, p.K)
			return err
		},
		// The sequential k-nearest protocol pays every message as a
		// serial hop.
		func(msgsPerQuery float64, m int) float64 { return msgsPerQuery })
}

// Fig6 regenerates Figure 6: sequential range query time vs number of
// points, balanced vs unbalanced.
func Fig6(ctx context.Context, p Params) (*Figure, error) {
	p = p.withDefaults()
	data, err := makeSweep(maxSize(p.Sizes), p.Queries, p.Dims, p.Seed)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig6", Title: fmt.Sprintf("Sequential range query time (D=%.2f)", p.RangeD),
		XLabel: "points", YLabel: "µs/query", YFmt: "%.2f",
		Notes: []string{fmt.Sprintf("mean over %d queries; bucket size %d", p.Queries, p.BucketSize)},
	}
	balanced := Series{Name: "balanced"}
	chain := Series{Name: "unbalanced"}
	for _, n := range p.Sizes {
		bt, err := kdtree.BulkLoad(data.prefix(n), p.Dims, p.BucketSize)
		if err != nil {
			return nil, err
		}
		ct, err := kdtree.BuildChain(data.prefixChainWorkload(n), p.Dims, p.BucketSize)
		if err != nil {
			return nil, err
		}
		balanced.X = append(balanced.X, float64(n))
		balanced.Y = append(balanced.Y, meanQueryMicros(data.queries, func(q []float64) {
			bt.RangeSearch(q, p.RangeD)
		}))
		chain.X = append(chain.X, float64(n))
		chain.Y = append(chain.Y, meanQueryMicros(data.queries, func(q []float64) {
			ct.RangeSearch(q, p.RangeD)
		}))
	}
	fig.Series = append(fig.Series, balanced, chain)
	return fig, nil
}

// Fig7 regenerates Figure 7: distributed range query time vs number of
// points for 1/3/5/9 partitions (border nodes fan out in parallel,
// §III-B.4).
func Fig7(ctx context.Context, p Params) (*Figure, error) {
	return distributedQueryFigure(p, "fig7",
		fmt.Sprintf("Distributed range query time (D=%.2f)", p.withDefaults().RangeD),
		func(tr *core.Tree, q []float64, p Params) error {
			_, err := tr.RangeSearch(ctx, q, p.RangeD)
			return err
		},
		// Border nodes fan out in parallel (§III-B.4): with the bench's
		// two-level partition topology the latency cost is two message
		// waves (client→root, root→data partitions), not one hop per
		// message — the sibling latencies overlap.
		func(msgsPerQuery float64, m int) float64 {
			if m == 1 {
				return 1
			}
			return 2
		})
}

// distributedQueryFigure runs one query kind over trees with varying
// partition counts, reporting mean per-query time as measured compute
// plus latency hops × latency; latencyHops maps the measured message
// count per query to the number of *serial* hops (sequential protocols
// pay every message, parallel fan-outs pay one per wave).
func distributedQueryFigure(p Params, id, title string,
	query func(*core.Tree, []float64, Params) error,
	latencyHops func(msgsPerQuery float64, m int) float64) (*Figure, error) {
	p = p.withDefaults()
	data, err := makeSweep(maxSize(p.Sizes), p.Queries, p.Dims, p.Seed)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "points", YLabel: "ms/query", YFmt: "%.4f",
		Notes: []string{
			fmt.Sprintf("per-query time = measured compute + serial latency hops × %v; mean over %d queries",
				p.Latency, p.Queries),
		},
	}
	for _, m := range p.Partitions {
		s := Series{Name: fmt.Sprintf("%d partitions", m)}
		if m == 1 {
			s.Name = "1 partition"
		}
		for _, n := range p.Sizes {
			fabric := cluster.NewInProc(cluster.InProcOptions{})
			tr, err := buildDistributed(data.prefix(n), m, p, fabric, false)
			if err != nil {
				fabric.Close()
				return nil, err
			}
			msgs0 := fabric.Stats().Messages
			start := time.Now()
			for _, q := range data.queries {
				if err := query(tr, q, p); err != nil {
					tr.Close()
					fabric.Close()
					return nil, err
				}
			}
			wall := time.Since(start)
			msgs := fabric.Stats().Messages - msgs0
			tr.Close()
			fabric.Close()

			msgsPerQuery := float64(msgs) / float64(len(data.queries))
			perQuery := wall/time.Duration(len(data.queries)) +
				time.Duration(latencyHops(msgsPerQuery, m)*float64(p.Latency))
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, float64(perQuery.Microseconds())/1000)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// meanQueryMicros times fn over the query workload and returns the mean
// per call in microseconds.
func meanQueryMicros(queries [][]float64, fn func(q []float64)) float64 {
	start := time.Now()
	for _, q := range queries {
		fn(q)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(queries)) / 1000
}
