package cluster

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// envelope is the wire format of both transports: one request or
// response. Payload types crossing a TCP fabric must be registered with
// RegisterMessage. Deadline (unix nanoseconds, 0 = none) carries the
// caller's context deadline so the serving side can derive an
// equivalent context and stop working on an expired request.
type envelope struct {
	From      int
	Payload   any
	Err       string
	Transient bool
	Deadline  int64
}

// RegisterMessage registers a payload type for gob encoding on TCP
// fabrics. Call it from an init function for every concrete request
// and response type.
func RegisterMessage(v any) { gob.Register(v) }

// TCP is a Fabric whose nodes listen on loopback TCP sockets and
// exchange gob-encoded envelopes: a real network path under the same
// interface as InProc. One connection serves one call (dial, request,
// response, close) — simple and adequate for examples and tests.
type TCP struct {
	mu      sync.Mutex
	nodes   []*tcpNode
	closed  bool
	pending sync.WaitGroup // in-flight Send calls

	messages atomic.Int64
	bytes    atomic.Int64
	failures atomic.Int64
}

type tcpNode struct {
	ln      net.Listener
	addr    string
	handler Handler
	wg      sync.WaitGroup
}

// NewTCP returns an empty TCP fabric; AddNode starts one listener per
// node on 127.0.0.1.
func NewTCP() *TCP { return &TCP{} }

// AddNode implements Fabric: it starts a listener and its accept loop.
func (f *TCP) AddNode(h Handler) (NodeID, error) {
	if h == nil {
		return 0, ErrUnknownNode
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("cluster: listen: %w", err)
	}
	n := &tcpNode{ln: ln, addr: ln.Addr().String(), handler: h}
	f.nodes = append(f.nodes, n)
	id := NodeID(len(f.nodes) - 1)
	n.wg.Add(1)
	go f.acceptLoop(n, id)
	return id, nil
}

func (f *TCP) acceptLoop(n *tcpNode, id NodeID) {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer conn.Close()
			f.serve(n, conn)
		}()
	}
}

func (f *TCP) serve(n *tcpNode, conn net.Conn) {
	var req envelope
	if err := gob.NewDecoder(conn).Decode(&req); err != nil {
		return
	}
	// Rebuild the caller's deadline context: cancellation cannot cross
	// a one-connection-per-call wire, but the deadline can, and it is
	// what lets the remote side stop traversing an expired query.
	//semtree:allow ctxfirst: the server side of the wire has no caller context; the deadline is rebuilt from the frame below
	ctx := context.Background()
	if req.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, req.Deadline))
		defer cancel()
	}
	resp := envelope{}
	out, err := n.handler(ctx, NodeID(req.From), req.Payload)
	if err != nil {
		resp.Err = err.Error()
		// The error crosses the wire as text; whether a retry can help
		// is the one piece of its identity CallRetry needs.
		resp.Transient = errors.Is(err, ErrTransient)
	} else {
		resp.Payload = out
	}
	_ = gob.NewEncoder(conn).Encode(&resp)
}

// Call implements Fabric. The context deadline is encoded into the
// request envelope (so the remote handler sees it) and armed on the
// connection (so the local read never outlives it); plain cancellation
// snaps the connection's deadlines shut, unblocking the reply read.
func (f *TCP) Call(ctx context.Context, from, to NodeID, req any) (any, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	if to < 0 || int(to) >= len(f.nodes) {
		f.mu.Unlock()
		return nil, ErrUnknownNode
	}
	addr := f.nodes[to].addr
	f.mu.Unlock()

	f.messages.Add(1)
	var dialer net.Dialer
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		f.failures.Add(1)
		return nil, fmt.Errorf("%w: dial: %v", ErrTransient, err)
	}
	defer conn.Close()
	var wireDeadline int64
	if d, ok := ctx.Deadline(); ok {
		wireDeadline = d.UnixNano()
		_ = conn.SetDeadline(d)
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })
		defer stop()
	}
	cw := &countingConn{Conn: conn}
	if err := gob.NewEncoder(cw).Encode(&envelope{From: int(from), Payload: req, Deadline: wireDeadline}); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		f.failures.Add(1)
		return nil, fmt.Errorf("%w: encode: %v", ErrTransient, err)
	}
	var resp envelope
	if err := gob.NewDecoder(cw).Decode(&resp); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		f.failures.Add(1)
		return nil, fmt.Errorf("%w: decode: %v", ErrTransient, err)
	}
	f.bytes.Add(cw.n.Load())
	if resp.Err != "" {
		if resp.Transient {
			return nil, fmt.Errorf("%w: %s", ErrTransient, resp.Err)
		}
		return nil, fmt.Errorf("cluster: remote error: %s", resp.Err)
	}
	return resp.Payload, nil
}

// Send implements Fabric: the call runs on its own goroutine and the
// response is discarded. Unlike InProc, TCP nodes serve concurrently,
// so Send does not model single-threaded ranks — it exists so both
// fabrics satisfy the full interface.
func (f *TCP) Send(from, to NodeID, req any) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if to < 0 || int(to) >= len(f.nodes) {
		f.mu.Unlock()
		return ErrUnknownNode
	}
	f.mu.Unlock()
	f.pending.Add(1)
	go func() {
		defer f.pending.Done()
		// One-way semantics: the response and any error are discarded;
		// Call already accounts transport failures.
		//semtree:allow ctxfirst: Send is detached by contract; there is no caller context to propagate
		_, _ = f.Call(context.Background(), from, to, req)
	}()
	return nil
}

// Flush implements Fabric.
func (f *TCP) Flush() { f.pending.Wait() }

type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// NumNodes implements Fabric.
func (f *TCP) NumNodes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.nodes)
}

// Stats implements Fabric.
func (f *TCP) Stats() Stats {
	return Stats{
		Messages: f.messages.Load(),
		Bytes:    f.bytes.Load(),
		Failures: f.failures.Load(),
	}
}

// Close implements Fabric: it stops all listeners and waits for
// in-flight handlers.
func (f *TCP) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	nodes := f.nodes
	f.mu.Unlock()
	for _, n := range nodes {
		n.ln.Close()
	}
	for _, n := range nodes {
		n.wg.Wait()
	}
	return nil
}
