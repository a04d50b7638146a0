// Package clustertest is the fault seam of the partition protocol's
// tests: a cluster.Fabric wrapper that fails calls on a seeded
// schedule. Only _test.go files import it — the module root's
// TestFaultSeamStaysInTests holds that — so no fault ships in the
// engine, and no engine fabric carries a fault knob.
//
// Every fault is a pure function of (seed, edge, per-edge sequence
// number): the n-th call from one node to another meets the same fault
// in every run, whatever the calls on other edges do, with no shared
// random source and no lock.
package clustertest

import (
	"context"
	"sync"
	"sync/atomic"

	"semtree/internal/cluster"
)

// Faults is an armed fault schedule; each rate is a probability in
// [0, 1]. The zero value injects nothing.
type Faults struct {
	Seed int64
	// DropBefore fails a call with cluster.ErrTransient before the inner
	// fabric sees it: the handler never runs, so a retry is always safe.
	DropBefore float64
	// DropReplyAfter runs a call on the inner fabric — the handler runs —
	// then discards its reply and returns cluster.ErrTransient: the
	// reply lost after the handler ran, under which a retried write
	// applies twice.
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

// Arm replaces the fault schedule for the calls that follow; sequence
// numbers run on. A test builds on a clean fabric, then arms it.
func (f *Fabric) Arm(faults Faults) { f.faults.Store(&faults) }

// AddNode registers h on the inner fabric, counting its runs.
func (f *Fabric) AddNode(h cluster.Handler) (cluster.NodeID, error) {
	return f.Fabric.AddNode(func(ctx context.Context, from cluster.NodeID, req any) (any, error) {
		f.runs.Add(1)
		return h(ctx, from, req)
	})
}

// Call forwards to the inner fabric unless the schedule fails the call
// before it leaves or loses its reply after it returns.
func (f *Fabric) Call(ctx context.Context, from, to cluster.NodeID, req any) (any, error) {
	fs, e := f.faults.Load(), edge{from, to}
	seq := f.next(e)
	if roll(fs.Seed, e, seq, dropBefore) < fs.DropBefore {
		f.dropped.Add(1)
		return nil, cluster.ErrTransient
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
// added: each one is a failure, and a call dropped before it left is a
// message the inner fabric never counted.
func (f *Fabric) Stats() cluster.Stats {
	s := f.Fabric.Stats()
	dropped := f.dropped.Load()
	s.Messages += dropped
	s.Failures += dropped + f.lost.Load()
	return s
}

// Counts returns what the wrapper has seen so far.
func (f *Fabric) Counts() Counts {
	return Counts{Dropped: f.dropped.Load(), Lost: f.lost.Load(), Runs: f.runs.Load(), Completed: f.completed.Load()}
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
