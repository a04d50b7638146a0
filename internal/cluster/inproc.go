package cluster

import (
	"context"
	"sync"
	"sync/atomic"
)

// InProcOptions is the in-process fabric's configuration, which is
// empty: the type stays so that callers' NewInProc(InProcOptions{})
// compiles. A network's behaviour — transit delay, lost messages,
// delivery by value — is the tests' fault seam's (clustertest).
type InProcOptions struct{}

// InProc is an in-process Fabric of pure dispatch: Call checks the
// context, the node and Close, counts the message and invokes the
// handler synchronously on the caller's goroutine (a multithreaded RPC
// endpoint), handing it the caller's request value and the caller its
// reply. A node is a handler and nothing else; no call fails but for
// the context, an unknown node or Close, so no request is ever
// delivered twice. It is safe for concurrent use.
type InProc struct {
	mu     sync.RWMutex
	nodes  []Handler
	closed bool

	messages atomic.Int64
}

// NewInProc returns an in-process fabric.
func NewInProc(InProcOptions) *InProc { return &InProc{} }

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

// Call implements Fabric. The handler receives ctx and is expected to
// check it during long traversals.
func (f *InProc) Call(ctx context.Context, from, to NodeID, req any) (any, error) {
	h, err := f.node(to)
	if err != nil {
		return nil, err
	}
	// Check before accounting: an already-dead call never becomes a
	// message.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.messages.Add(1)
	return h(ctx, from, req)
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
