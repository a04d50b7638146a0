package bench

import (
	"context"
	"time"

	"semtree/internal/cluster"
)

// rankClock is the clock of the index-building figures (Figure 3, the
// bucket-size ablation): a cluster.Fabric wrapper over InProc that
// replays a build as if every node were a single-threaded rank and
// every message one-way, so the paper's ranks overlap ("using M−1 data
// partitions, we can perform in the best case M−1 parallel operations",
// §III-C) even on a one-CPU host. It is to the figures what
// cluster.Observe is to the cost model: a timing point on Call, nothing
// in the engine. Every Call is timed on a stack, so a handler's self
// time excludes the calls nested in it. A message leaves when its
// sender has spent the self time up to the send (the client sends every
// insert at 0), arrives latency later and is served once its rank is
// free:
//
//	start = max(sender's virtual time + latency, free[to])
//	end   = start + self;  free[to] = end;  makespan = latest end
//
// — the flow-shop schedule of the measured handler times. One goroutine
// drives it (Tree.InsertAll(pts, 1)); it is not safe for concurrent use.
type rankClock struct {
	cluster.Fabric
	latency  time.Duration
	now      func() time.Time // time.Now, or the script of the clock's test
	free     []time.Duration  // per rank: virtual end of its last message
	busy     []time.Duration  // per rank: summed self time
	stack    []rankFrame      // calls in progress, innermost last
	makespan time.Duration
}

// rankFrame is one handler execution in progress.
type rankFrame struct {
	start   time.Duration // virtual time its service began
	self    time.Duration // measured so far, nested calls excluded
	resumed time.Time     // when it last got the goroutine back
}

func newRankClock(latency time.Duration) *rankClock {
	return &rankClock{Fabric: cluster.NewInProc(cluster.InProcOptions{}), latency: latency, now: time.Now}
}

// AddNode adds a rank. One added inside a handler (a spill creating a
// partition) starts free.
func (c *rankClock) AddNode(h cluster.Handler) (cluster.NodeID, error) {
	id, err := c.Fabric.AddNode(h)
	if err == nil {
		c.free, c.busy = append(c.free, 0), append(c.busy, 0)
	}
	return id, err
}

// Call suspends the sender's frame, runs the handler under a frame of
// its own and books its self time on rank `to`.
func (c *rankClock) Call(ctx context.Context, from, to cluster.NodeID, req any) (any, error) {
	t := c.now()
	var sent time.Duration
	if n := len(c.stack); n > 0 {
		sender := &c.stack[n-1]
		sender.self += t.Sub(sender.resumed)
		sent = sender.start + sender.self
	}
	c.stack = append(c.stack, rankFrame{start: max(sent+c.latency, c.free[to]), resumed: t})
	resp, err := c.Fabric.Call(ctx, from, to, req)
	t = c.now()
	n := len(c.stack) - 1
	f := c.stack[n]
	c.stack = c.stack[:n]
	f.self += t.Sub(f.resumed)
	c.free[to] = f.start + f.self
	c.busy[to] += f.self
	c.makespan = max(c.makespan, c.free[to])
	if n > 0 {
		c.stack[n-1].resumed = t
	}
	return resp, err
}
