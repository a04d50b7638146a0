package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCP is a Fabric whose nodes listen on loopback TCP sockets and
// exchange frames (frame.go): a real network path under the same
// interface as InProc. Connections are long-lived, like the channels
// between the paper's MPJ ranks: each peer has a small list of idle
// connections, and each end of a connection keeps a buffered reader and
// one frame buffer for its lifetime. Call checks a connection out
// exclusively (dialling when none is idle), writes one request frame,
// reads one reply frame and checks the connection back in; the serving
// side runs a read→handle→write loop per accepted connection. A message
// is encoded straight into the frame buffer and sent in one write.
//
// A connection is pooled again after every clean exchange. It is
// closed instead when (1) a write or read failed — the stream position
// is unknown; (2) the context's deadline fired or it was cancelled, or
// may have been — the poisoned SetDeadline(now) must not be inherited
// by the next caller. A frame buffer grown past 64 KiB is dropped
// after its frame (column.Frame); the connection is kept.
type TCP struct {
	mu     sync.Mutex // guards nodes, closed, and every node's idle and served
	nodes  []*tcpNode
	closed bool

	messages  atomic.Int64
	bytes     atomic.Int64
	failures  atomic.Int64
	fallbacks atomic.Int64
}

// maxIdlePerPeer caps a peer's idle list; a connection checked in
// beyond it is closed. A traced run of the repo benchmark's knn-tcp9
// workload (nine partitions, nested calls, fan-out, two closed-loop
// clients beside four open-loop senders) never had more than 4
// connections to one peer checked out at once.
const maxIdlePerPeer = 4

type tcpNode struct {
	ln      net.Listener
	addr    string
	handler Handler
	wg      sync.WaitGroup

	idle   []*tcpConn            // client ends, checked in
	served map[net.Conn]struct{} // server ends, so Close can unpark their serve loops
}

// tcpConn is the client end of one pooled connection. It is owned by
// one Call at a time, so its wire needs no synchronization beyond the
// pool's.
type tcpConn struct {
	net.Conn
	wire
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
// closes it, the stream breaks, or Close unparks the read. A request
// that does not decode is answered with the error, like one its handler
// refused: the frame was read whole, so the stream is still in step.
func (f *TCP) serve(n *tcpNode, conn net.Conn) {
	c := newWire(conn)
	for {
		kind, body, _, err := c.frame.Read(c.r, 0)
		if err != nil {
			return
		}
		var resp any
		h, req, err := c.decode(kind, body)
		if err == nil {
			resp, err = n.handle(h, req)
		}
		if kind, err = f.encode(&c, header{err: err}, resp); err != nil {
			kind, _ = f.encode(&c, header{err: err}, nil)
		}
		if _, err := c.frame.Send(c.w, kind, 0); err != nil {
			return
		}
	}
}

// encode is wire.encode, counting the messages that took the fallback.
func (f *TCP) encode(c *wire, h header, payload any) (byte, error) {
	kind, fallback, err := c.encode(h, payload)
	if fallback {
		f.fallbacks.Add(1)
	}
	if err != nil {
		return 0, fmt.Errorf("cluster: encode %T: %w", payload, err)
	}
	return kind, nil
}

func (n *tcpNode) handle(h header, req any) (any, error) {
	// Rebuild the caller's deadline context: a cancellation reaches
	// this side only as the caller closing the connection, which the
	// serve loop sees after the handler returns, but the deadline
	// travels in the frame, and it is what lets the remote side stop
	// traversing an expired query.
	//semtree:allow ctxfirst: the server side of the wire has no caller context; the deadline is rebuilt from the frame below
	ctx := context.Background()
	if h.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, h.deadline))
		defer cancel()
	}
	return n.handler(ctx, h.from, req)
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
	return &tcpConn{Conn: conn, wire: newWire(conn)}, nil
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
// request frame (so the remote handler sees it) and armed on the
// connection (so the local read never outlives it); plain cancellation
// snaps the connection's deadlines shut, unblocking the reply read.
// Either way the connection is then closed, not pooled. A handler's
// error returns wrapping the same sentinel (ErrTransient, ErrClosed,
// ErrUnknownNode or a context error) it wrapped on the serving side.
func (f *TCP) Call(ctx context.Context, from, to NodeID, req any) (any, error) {
	c, err := f.checkout(ctx, to)
	if err != nil {
		return nil, err
	}
	h := header{from: from}
	// Zero when ctx has no deadline, which also clears whatever the
	// connection's previous caller armed.
	d, _ := ctx.Deadline()
	_ = c.SetDeadline(d)
	if !d.IsZero() {
		h.deadline = d.UnixNano()
	}
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = c.SetDeadline(time.Now()) })
	}

	kind, err := f.encode(&c.wire, h, req)
	if err != nil {
		f.release(to, c, stop())
		return nil, err
	}
	sent, err := c.frame.Send(c.w, kind, 0)
	step := "write"
	var body []byte
	var got int
	if err == nil {
		step = "read"
		kind, body, got, err = c.frame.Read(c.r, 0)
	}
	if err != nil {
		stop()
		c.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		f.failures.Add(1)
		return nil, fmt.Errorf("%w: %s: %v", ErrTransient, step, err)
	}
	f.bytes.Add(int64(sent + got))
	h, resp, err := c.decode(kind, body)
	// stop reports false once the AfterFunc has started: the connection
	// may carry its poisoned deadline even though the exchange finished.
	f.release(to, c, stop())
	if err != nil {
		return nil, err
	}
	if h.err != nil {
		return nil, h.err
	}
	return resp, nil
}

// release ends a Call's hold on a connection whose stream is in step:
// it is pooled when its deadline is still the caller's, else closed.
func (f *TCP) release(to NodeID, c *tcpConn, clean bool) {
	if clean {
		f.checkin(to, c)
	} else {
		c.Close()
	}
}

// Stats implements Fabric.
func (f *TCP) Stats() Stats {
	return Stats{
		Messages: f.messages.Load(),
		Bytes:    f.bytes.Load(),
		Failures: f.failures.Load(),
		Fallback: f.fallbacks.Load(),
	}
}

// Close implements Fabric: it stops all listeners, closes the idle
// connections and waits for in-flight handlers. A serve loop parked in
// a read is unparked through its read deadline rather than by closing
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
