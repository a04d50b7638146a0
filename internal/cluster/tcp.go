package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"semtree/internal/column"
	"semtree/internal/mux"
)

// TCP is a Fabric whose nodes listen on loopback TCP sockets and
// exchange frames (frame.go). Every call to a node shares one
// long-lived connection to it, like the channels between the paper's
// MPJ ranks, under the serving tier's call discipline (internal/mux).
// The serving side reads each request where it arrives and answers it
// on one of the connection's parked workers (mux.Server), long-lived
// receivers like an MPJ rank. The calls of a pooled kind draw their
// requests and replies from pools at both ends (RegisterPooled): a
// serving end releases the request and the reply once the reply is out,
// and a calling end's reader decodes the reply into a pooled value its
// caller releases.
// A call whose context ends leaves the connection to the other calls on
// it; only a failed read or write ends a connection, and every call
// waiting on it fails with ErrTransient.
type TCP struct {
	mu      sync.Mutex // guards nodes and their conns; Close ends closing under it
	nodes   []*tcpNode
	closing context.Context // done once Close has begun
	shut    context.CancelFunc
	wg      sync.WaitGroup // the accept loops and the serve loops, each waiting out its workers

	messages  atomic.Int64
	bytes     atomic.Int64
	failures  atomic.Int64
	fallbacks atomic.Int64
}

type tcpNode struct {
	ln      net.Listener
	addr    string
	handler Handler
	conn    *mux.Conn[answer] // the client end every call to this node shares
}

// answer is a reply as its connection's reader decoded it: the
// handler's response or error.
type answer struct {
	resp any
	err  error
}

// NewTCP returns an empty TCP fabric; AddNode starts one listener per
// node on 127.0.0.1.
func NewTCP() *TCP {
	//semtree:allow ctxfirst: closing is the fabric's own lifetime, not a request's; Close ends it
	closing, shut := context.WithCancel(context.Background())
	return &TCP{closing: closing, shut: shut}
}

// AddNode implements Fabric: it starts a listener and its accept loop.
func (f *TCP) AddNode(h Handler) (NodeID, error) {
	if h == nil {
		return 0, ErrUnknownNode
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closing.Err() != nil {
		return 0, ErrClosed
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("cluster: listen: %w", err)
	}
	n := &tcpNode{ln: ln, addr: ln.Addr().String(), handler: h}
	f.nodes = append(f.nodes, n)
	f.wg.Add(1)
	go f.acceptLoop(n)
	return NodeID(len(f.nodes) - 1), nil
}

func (f *TCP) acceptLoop(n *tcpNode) {
	defer f.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.serve(n, conn)
		}()
	}
}

// serve answers one connection's requests until the stream ends or
// Close unparks the read (by its deadline, so running handlers can
// still reply), then waits for the answers and closes the connection.
// Its read loop decodes each request where it read it, and the
// connection's serving end (internal/mux) answers it on a parked
// worker. A request that does not decode is answered with the error.
func (f *TCP) serve(n *tcpNode, conn net.Conn) {
	defer conn.Close()
	unpark := context.AfterFunc(f.closing, func() { _ = conn.SetReadDeadline(time.Now()) })
	defer unpark()
	end := mux.NewServer(conn, 0, func(w *mux.Writer, r request) { f.answer(n, w, r) })
	defer end.Wait()
	defer end.Close()
	br := bufio.NewReader(conn)
	var in column.Frame
	var d column.Decoder
	for {
		kind, body, _, err := in.Read(br, 0)
		if err != nil {
			return
		}
		d.Reset(body)
		h, req, err := decodeBody(&d, kind, pooled[kind].req.Decode)
		d.Reset(nil) // the decoder keeps no hold on the frame buffer
		end.Go(request{h: h, kind: kind, req: req, err: err})
	}
}

// request is a request as its connection's read loop decoded it: its
// header, kind and payload, or why it did not decode.
type request struct {
	h    header
	kind byte
	req  any
	err  error
}

// answer runs a request's handler and writes the reply, then releases
// the request and the reply of a pooled call (RegisterPooled): nothing
// reads either once the reply is written.
func (f *TCP) answer(n *tcpNode, w *mux.Writer, r request) {
	resp, err := r.req, r.err
	if err == nil {
		resp, err = n.handle(r.h, r.req)
	}
	if f.reply(w, r.h.id, resp, err) != nil {
		w.Conn.Close() // a torn reply leaves the stream out of step
	}
	p := &pooled[r.kind]
	p.reply.release(resp)
	p.req.release(r.req)
}

// reply writes resp, or err, as the answer to request id; a response
// that does not encode is answered with the error saying why.
func (f *TCP) reply(w *mux.Writer, id uint64, resp any, err error) error {
	for {
		sent, werr := w.Write(func(b *column.Appender) (byte, error) {
			return f.encode(b, header{id: id, err: err}, resp)
		})
		if sent > 0 || werr == nil {
			return werr
		}
		resp, err = nil, werr // an error reply with no payload always encodes
	}
}

func (n *tcpNode) handle(h header, req any) (any, error) {
	// The caller's cancel never reaches this side; its deadline does,
	// and lets the handler stop traversing an expired query.
	//semtree:allow ctxfirst: the server side of the wire has no caller context; the deadline is rebuilt from the frame below
	ctx := context.Background()
	if h.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, h.deadline))
		defer cancel()
	}
	return n.handler(ctx, h.from, req)
}

// readAnswer decodes a reply where its connection's reader read it; one
// that does not decode fails its call alone. The reply to a call of a
// pooled kind is read by that kind's answer instead (RegisterPooled).
func readAnswer(kind byte, d *column.Decoder) (answer, error) {
	return decodeAnswer(d, kind, nil), nil
}

// decodeAnswer is readAnswer reading a payload with read when it is not
// nil.
func decodeAnswer(d *column.Decoder, kind byte, read Decode) answer {
	h, resp, err := decodeBody(d, kind, read)
	if err == nil {
		err = h.err
	}
	return answer{resp: resp, err: err}
}

// conn returns the connection every call to node `to` shares, dialling
// one (over loopback) when there is none or the last failed. As on
// InProc, an already-dead call never becomes a message.
func (f *TCP) conn(ctx context.Context, to NodeID) (*mux.Conn[answer], error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.closing.Err() != nil:
		return nil, ErrClosed
	case to < 0 || int(to) >= len(f.nodes):
		return nil, ErrUnknownNode
	case ctx.Err() != nil:
		return nil, ctx.Err()
	}
	f.messages.Add(1)
	n := f.nodes[to]
	if n.conn == nil || n.conn.Err() != nil {
		var dialer net.Dialer
		conn, err := dialer.DialContext(ctx, "tcp", n.addr)
		if err != nil {
			return nil, f.transportErr(ctx, "dial", err)
		}
		n.conn = mux.New[answer](conn, 0)
	}
	return n.conn, nil
}

// Call implements Fabric. The context deadline travels in the frame to
// the remote handler. A handler's error matches what it matched on the
// serving side, for every error internal/errcode has an entry for.
func (f *TCP) Call(ctx context.Context, from, to NodeID, req any) (any, error) {
	c, err := f.conn(ctx, to)
	if err != nil {
		return nil, err
	}
	h := header{from: from}
	if d, ok := ctx.Deadline(); ok {
		h.deadline = d.UnixNano()
	}
	decode := readAnswer
	if a := pooled[kindOf(req)].answer; a != nil {
		decode = a
	}
	var encodeErr error
	a, moved, err := c.Call(ctx, func(b *column.Appender, id uint64) (byte, error) {
		h.id = id
		kind, err := f.encode(b, h, req)
		encodeErr = err
		return kind, err
	}, decode)
	switch {
	case encodeErr != nil:
		return nil, encodeErr
	case err != nil:
		return nil, f.transportErr(ctx, "exchange", err)
	}
	f.bytes.Add(int64(moved))
	return a.resp, a.err
}

// transportErr is a failed step's error: the context's when it has
// ended, else ErrTransient, counted as a failure.
func (f *TCP) transportErr(ctx context.Context, step string, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	f.failures.Add(1)
	return fmt.Errorf("%w: %s: %v", ErrTransient, step, err)
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

// Close implements Fabric: it stops all listeners and unparks every
// serve loop, and returns once every in-flight handler has answered and
// every connection has ended — the client end reads the replies, then
// its peer's close. No connection is dialled once closing is done.
func (f *TCP) Close() error {
	f.mu.Lock()
	f.shut()
	nodes := f.nodes
	f.mu.Unlock()
	for _, n := range nodes {
		n.ln.Close()
	}
	f.wg.Wait()
	for _, n := range nodes {
		if n.conn != nil {
			<-n.conn.Done()
		}
	}
	return nil
}
