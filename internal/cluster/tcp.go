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
// interface as InProc. Connections are long-lived, like the channels
// between the paper's MPJ ranks: each peer has a small list of idle
// connections, and a connection owns one gob.Encoder and one
// gob.Decoder on both ends for its lifetime, so type descriptors cross
// it once. Call checks a connection out exclusively (dialling when none
// is idle), does one write→read exchange and checks it back in; the
// serving side runs a decode→handle→encode loop per accepted
// connection.
//
// A connection is pooled again only after a clean exchange. It is
// closed instead when (1) the encode or decode failed — the stream
// position is unknown; (2) the context's deadline fired or it was
// cancelled, or may have been — the poisoned SetDeadline(now) must not
// be inherited by the next caller; (3) the exchange moved more than
// maxPooledExchange bytes — gob's buffers never shrink.
type TCP struct {
	mu     sync.Mutex // guards nodes, closed, and every node's idle and served
	nodes  []*tcpNode
	closed bool

	messages atomic.Int64
	bytes    atomic.Int64
	failures atomic.Int64
}

const (
	// maxIdlePerPeer caps a peer's idle list; a connection checked in
	// beyond it is closed. A traced run of the repo benchmark's
	// knn-tcp9 workload (nine partitions, nested calls, fan-out, two
	// closed-loop clients beside four open-loop senders) never had more
	// than 4 connections to one peer checked out at once.
	maxIdlePerPeer = 4

	// maxPooledExchange is the request+response size above which a
	// connection is closed rather than pooled: a gob encoder/decoder
	// keeps a buffer as large as the largest message it ever carried.
	// In the same run every one of 360k query-path exchanges moved less
	// than 64 KiB (the largest are range replies), the bulk load's 40
	// install messages 1–2 MiB each and nothing lay in between; pooling
	// the install connections moved knn-tcp9's heap_mb from 51.5 to
	// 72.5 MiB.
	maxPooledExchange = 64 << 10
)

type tcpNode struct {
	ln      net.Listener
	addr    string
	handler Handler
	wg      sync.WaitGroup

	idle   []*tcpConn            // client ends, checked in
	served map[net.Conn]struct{} // server ends, so Close can unpark their serve loops
}

// tcpConn is the client end of one pooled connection. It is owned by
// one Call at a time, so n needs no synchronization beyond the pool's.
type tcpConn struct {
	net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
	n   int64 // bytes read and written over the connection's lifetime
}

func (c *tcpConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *tcpConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n += int64(n)
	return n, err
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
	n := &tcpNode{ln: ln, addr: ln.Addr().String(), handler: h, served: make(map[net.Conn]struct{})}
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
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		n.served[conn] = struct{}{}
		n.wg.Add(1)
		f.mu.Unlock()
		go func() {
			defer n.wg.Done()
			f.serve(n, conn)
			f.mu.Lock()
			delete(n.served, conn)
			f.mu.Unlock()
			conn.Close()
		}()
	}
}

// serve answers one connection's requests in order until the peer
// closes it, the stream breaks, or Close unparks the read.
func (f *TCP) serve(n *tcpNode, conn net.Conn) {
	dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
	for {
		var req envelope // fresh per message: gob leaves absent (zero) fields untouched
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := n.handle(&req)
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

func (n *tcpNode) handle(req *envelope) envelope {
	// Rebuild the caller's deadline context: a cancellation reaches
	// this side only as the caller closing the connection, which the
	// serve loop sees after the handler returns, but the deadline
	// travels in the envelope, and it is what lets the remote side stop
	// traversing an expired query.
	//semtree:allow ctxfirst: the server side of the wire has no caller context; the deadline is rebuilt from the frame below
	ctx := context.Background()
	if req.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, req.Deadline))
		defer cancel()
	}
	out, err := n.handler(ctx, NodeID(req.From), req.Payload)
	if err != nil {
		// The error crosses the wire as text; whether a retry can help
		// is the one piece of its identity CallRetry needs.
		return envelope{Err: err.Error(), Transient: errors.Is(err, ErrTransient)}
	}
	return envelope{Payload: out}
}

// checkout returns an idle connection to node `to`, or dials one.
func (f *TCP) checkout(ctx context.Context, to NodeID) (*tcpConn, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	if to < 0 || int(to) >= len(f.nodes) {
		f.mu.Unlock()
		return nil, ErrUnknownNode
	}
	n := f.nodes[to]
	// As on InProc, an already-dead call never becomes a message: with
	// a pooled connection there is no dial left to fail on the context.
	if err := ctx.Err(); err != nil {
		f.mu.Unlock()
		return nil, err
	}
	var c *tcpConn
	if last := len(n.idle) - 1; last >= 0 {
		c, n.idle[last] = n.idle[last], nil
		n.idle = n.idle[:last]
	}
	f.mu.Unlock()

	f.messages.Add(1)
	if c != nil {
		return c, nil
	}
	var dialer net.Dialer
	conn, err := dialer.DialContext(ctx, "tcp", n.addr)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		f.failures.Add(1)
		return nil, fmt.Errorf("%w: dial: %v", ErrTransient, err)
	}
	c = &tcpConn{Conn: conn}
	c.enc, c.dec = gob.NewEncoder(c), gob.NewDecoder(c)
	return c, nil
}

// checkin returns a connection to its peer's idle list after a clean
// exchange; a full list or a closed fabric closes it instead.
func (f *TCP) checkin(to NodeID, c *tcpConn) {
	f.mu.Lock()
	n := f.nodes[to]
	if !f.closed && len(n.idle) < maxIdlePerPeer {
		n.idle = append(n.idle, c)
		c = nil
	}
	f.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Call implements Fabric. The context deadline is encoded into the
// request envelope (so the remote handler sees it) and armed on the
// connection (so the local read never outlives it); plain cancellation
// snaps the connection's deadlines shut, unblocking the reply read.
// Either way the connection is then closed, not pooled.
func (f *TCP) Call(ctx context.Context, from, to NodeID, req any) (any, error) {
	c, err := f.checkout(ctx, to)
	if err != nil {
		return nil, err
	}
	// Zero when ctx has no deadline, which also clears whatever the
	// connection's previous caller armed.
	d, _ := ctx.Deadline()
	_ = c.SetDeadline(d)
	var wireDeadline int64
	if !d.IsZero() {
		wireDeadline = d.UnixNano()
	}
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = c.SetDeadline(time.Now()) })
	}

	before, step := c.n, "encode"
	var resp envelope
	err = c.enc.Encode(&envelope{From: int(from), Payload: req, Deadline: wireDeadline})
	if err == nil {
		step, err = "decode", c.dec.Decode(&resp)
	}
	moved := c.n - before
	// stop reports false once the AfterFunc has started: the connection
	// may carry its poisoned deadline even though the exchange finished.
	if !stop() || err != nil || moved > maxPooledExchange {
		c.Close()
	} else {
		f.checkin(to, c)
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		f.failures.Add(1)
		return nil, fmt.Errorf("%w: %s: %v", ErrTransient, step, err)
	}
	f.bytes.Add(moved)
	if resp.Err != "" {
		if resp.Transient {
			return nil, fmt.Errorf("%w: %s", ErrTransient, resp.Err)
		}
		return nil, fmt.Errorf("cluster: remote error: %s", resp.Err)
	}
	return resp.Payload, nil
}

// Stats implements Fabric.
func (f *TCP) Stats() Stats {
	return Stats{
		Messages: f.messages.Load(),
		Bytes:    f.bytes.Load(),
		Failures: f.failures.Load(),
	}
}

// Close implements Fabric: it stops all listeners, closes the idle
// connections and waits for in-flight handlers. A serve loop parked in
// Decode is unparked through its read deadline rather than by closing
// its connection, so a handler that is still running can write its
// reply; the loop's next read then fails and it exits. Connections
// checked out at this moment are closed by their Call when it returns.
func (f *TCP) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	nodes := f.nodes
	for _, n := range nodes {
		for _, c := range n.idle {
			c.Close()
		}
		n.idle = nil
		for conn := range n.served {
			_ = conn.SetReadDeadline(time.Now())
		}
	}
	f.mu.Unlock()
	for _, n := range nodes {
		n.ln.Close()
	}
	for _, n := range nodes {
		n.wg.Wait()
	}
	return nil
}
