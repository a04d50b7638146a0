// Package clustertest is the fault seam of the partition protocol's
// tests: a cluster.Fabric wrapper that holds the whole simulated
// network. It delays calls, fails them on a seeded schedule, and
// delivers every message by value. Only _test.go files import it — the
// module root's TestFaultSeamStaysInTests holds that — so no fault
// ships in the engine, and no engine fabric carries a network setting.
//
// Every fault is a pure function of (seed, edge, per-edge sequence
// number): the n-th call from one node to another meets the same fault
// in every run, whatever the calls on other edges do, with no shared
// random source and no lock.
//
// Delivery is by value on every fabric it wraps: each request, reply
// and handler error crosses the frame codec TCP runs (cluster.RoundTrip,
// and RoundTripReply, which also pools a reply as TCP's two ends do)
// before the inner fabric, the handler or the caller sees it.
// A handler never holds its caller's memory, a re-sent request arrives
// as a fresh copy, and an error arrives as its code, detail and text —
// so a fault test on InProc states what TCP does.
package clustertest

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"semtree/internal/cluster"
)

// Faults is an armed fault schedule; each rate is a probability in
// [0, 1]. The zero value injects nothing.
type Faults struct {
	Seed int64
	// Delay is every call's transit: a call waits that long before the
	// inner fabric sees it. A call whose context ends first returns the
	// context's error and still counts as a message: it left, only its
	// reply is abandoned.
	Delay time.Duration
	// DropBefore fails a call with cluster.ErrTransient before the inner
	// fabric sees it: the handler never runs, so a retry is always safe.
	DropBefore float64
	// DropReplyAfter runs a call on the inner fabric — the handler runs —
	// then discards its reply and returns cluster.ErrTransient: the
	// reply lost after the handler ran, so a retry re-sends a request
	// that already applied.
	DropReplyAfter float64
}

// Counts is what a Fabric has seen.
type Counts struct {
	Dropped   int64 // calls failed before they left (DropBefore)
	Lost      int64 // replies discarded after the handler ran (DropReplyAfter)
	Runs      int64 // handler executions on nodes added through the wrapper
	Completed int64 // calls that returned a reply to their caller
}

// Injected is the number of faults injected.
func (c Counts) Injected() int64 { return c.Dropped + c.Lost }

// Fabric wraps a cluster.Fabric with a fault schedule.
type Fabric struct {
	cluster.Fabric
	faults atomic.Pointer[Faults]
	seqs   sync.Map // edge → *atomic.Uint64, the edge's next sequence number

	dropped, lost, runs, completed atomic.Int64
	abandoned                      atomic.Int64 // calls whose context ended in transit
}

// edge is one direction between two nodes.
type edge struct{ from, to cluster.NodeID }

// The faults, as the last key of a roll.
const (
	dropBefore uint64 = iota + 1
	dropReplyAfter
)

// New wraps inner with faults armed.
func New(inner cluster.Fabric, faults Faults) *Fabric {
	f := &Fabric{Fabric: inner}
	f.Arm(faults)
	return f
}

// Arm replaces the fault schedule and the delay for the calls that
// follow; sequence numbers run on. A test builds on a clean fabric,
// then arms it.
func (f *Fabric) Arm(faults Faults) { f.faults.Store(&faults) }

// AddNode registers h on the inner fabric, counting its runs; h's
// reply or error crosses the codec before the inner fabric sees it, as
// TCP's serving side encodes it.
func (f *Fabric) AddNode(h cluster.Handler) (cluster.NodeID, error) {
	return f.Fabric.AddNode(func(ctx context.Context, from cluster.NodeID, req any) (any, error) {
		f.runs.Add(1)
		resp, err := h(ctx, from, req)
		return cluster.RoundTripReply(req, resp, err)
	})
}

// Call forwards a copy of req to the inner fabric, after the delay,
// unless the schedule fails the call before it leaves or loses its
// reply after it returns.
func (f *Fabric) Call(ctx context.Context, from, to cluster.NodeID, req any) (any, error) {
	fs, e := f.faults.Load(), edge{from, to}
	seq := f.next(e)
	if roll(fs.Seed, e, seq, dropBefore) < fs.DropBefore {
		f.dropped.Add(1)
		return nil, cluster.ErrTransient
	}
	// An already-dead call goes on to the inner fabric, which fails it
	// without counting a message.
	if fs.Delay > 0 && ctx.Err() == nil {
		if err := wait(ctx, fs.Delay); err != nil {
			f.abandoned.Add(1)
			return nil, err
		}
	}
	req, err := cluster.RoundTrip(req, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.Fabric.Call(ctx, from, to, req)
	if err != nil {
		return nil, err
	}
	if roll(fs.Seed, e, seq, dropReplyAfter) < fs.DropReplyAfter {
		f.lost.Add(1)
		return nil, cluster.ErrTransient
	}
	f.completed.Add(1)
	return resp, nil
}

// Stats is the inner fabric's accounting with the injected faults
// added: each one is a failure, and a call dropped before it left or
// abandoned in transit is a message the inner fabric never counted.
func (f *Fabric) Stats() cluster.Stats {
	s := f.Fabric.Stats()
	dropped := f.dropped.Load()
	s.Messages += dropped + f.abandoned.Load()
	s.Failures += dropped + f.lost.Load()
	return s
}

// Counts returns what the wrapper has seen so far.
func (f *Fabric) Counts() Counts {
	return Counts{Dropped: f.dropped.Load(), Lost: f.lost.Load(), Runs: f.runs.Load(), Completed: f.completed.Load()}
}

// wait sleeps for d or until ctx is done, whichever comes first, and
// returns the context's error if it ended. A context that can never be
// cancelled skips the timer machinery.
func wait(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// next returns e's sequence number for this call.
func (f *Fabric) next(e edge) uint64 {
	c, ok := f.seqs.Load(e)
	if !ok {
		c, _ = f.seqs.LoadOrStore(e, new(atomic.Uint64))
	}
	return c.(*atomic.Uint64).Add(1) - 1
}

// roll maps (seed, edge, sequence number, fault) to a uniform value in
// [0, 1), through splitmix64's finalizer.
func roll(seed int64, e edge, seq, fault uint64) float64 {
	h := uint64(seed)
	for _, v := range [...]uint64{uint64(e.from), uint64(e.to), seq, fault} {
		h = mix(h ^ v)
	}
	return float64(h>>11) / (1 << 53)
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
