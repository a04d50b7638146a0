package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// InProcOptions configure the in-process fabric.
type InProcOptions struct {
	// Latency is the simulated network transit per message, slept on
	// the caller's goroutine before the handler runs.
	Latency time.Duration
}

// InProc is an in-process Fabric: Call invokes the handler
// synchronously on the caller's goroutine after the simulated transit
// delay (a multithreaded RPC endpoint). A node is a handler and nothing
// else; no call fails but for the context, an unknown node or Close.
// It is safe for concurrent use.
type InProc struct {
	latency atomic.Int64 // current per-message transit, adjustable at runtime

	mu     sync.RWMutex
	nodes  []Handler
	closed bool

	messages atomic.Int64
}

// NewInProc returns an in-process fabric.
func NewInProc(opts InProcOptions) *InProc {
	f := &InProc{}
	f.latency.Store(int64(opts.Latency))
	return f
}

// SetLatency changes the simulated per-message transit at runtime:
// tests and benchmarks build an index over a fast fabric, then degrade
// the network to measure query behavior under latency (deadline and
// cancellation experiments in particular).
func (f *InProc) SetLatency(d time.Duration) { f.latency.Store(int64(d)) }

// AddNode implements Fabric.
func (f *InProc) AddNode(h Handler) (NodeID, error) {
	if h == nil {
		return 0, ErrUnknownNode
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	f.nodes = append(f.nodes, h)
	return NodeID(len(f.nodes) - 1), nil
}

func (f *InProc) node(to NodeID) (Handler, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return nil, ErrClosed
	}
	if to < 0 || int(to) >= len(f.nodes) {
		return nil, ErrUnknownNode
	}
	return f.nodes[to], nil
}

// Call implements Fabric. The simulated transit sleep unblocks when ctx
// is done, so a cancelled query abandons its in-flight message instead
// of paying the full latency; the handler receives ctx and is expected
// to check it during long traversals.
func (f *InProc) Call(ctx context.Context, from, to NodeID, req any) (any, error) {
	h, err := f.node(to)
	if err != nil {
		return nil, err
	}
	// Check before accounting: an already-dead call never becomes a
	// message. A cancel mid-transit still counts — the message left,
	// only its reply is abandoned.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.messages.Add(1)
	if d := time.Duration(f.latency.Load()); d > 0 {
		if err := sleepCtx(ctx, d); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return h(ctx, from, req)
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
// A context that can never be cancelled skips the timer machinery.
func sleepCtx(ctx context.Context, d time.Duration) error {
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

// Stats implements Fabric. Nothing is encoded in process and nothing
// fails in transit, so Bytes and Failures stay zero: byte accounting is
// the TCP fabric's.
func (f *InProc) Stats() Stats { return Stats{Messages: f.messages.Load()} }

// Close implements Fabric. Calls already inside a handler finish; later
// ones fail with ErrClosed.
func (f *InProc) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	return nil
}
