package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"semtree"
	"semtree/internal/triple"
)

// Client talks to one semtree-serve front-end. It pools connections
// (one in-flight request per pooled connection, like database/sql), is
// safe for concurrent use, and retries typed-retryable failures —
// ErrDraining and transport errors on requests that provably did not
// execute — on a fresh connection. Search results decode to the same
// types the in-process API returns: semtree.Result with matches,
// ExecStats (including the server's protocol choice) and sentinel
// errors that satisfy errors.Is exactly as they would in process.
type Client struct {
	addr  string
	token string

	mu     sync.Mutex
	idle   []*clientConn
	closed bool

	reqID atomic.Uint64
}

// maxIdleConns bounds the pool; excess connections close on release.
const maxIdleConns = 4

// clientRetries is the attempt budget for retryable failures.
const clientRetries = 3

// clientConn is one pooled connection with its own frame buffers: the
// request being written and the reply being read.
type clientConn struct {
	conn net.Conn
	in   frameReader
	out  []byte
}

// Dial connects to a front-end and performs the hello exchange, so
// authentication and version failures surface here as the typed
// sentinels (ErrAuth, ErrVersion, ErrDraining) rather than on the
// first query. The context bounds the dial and the hello.
func Dial(ctx context.Context, addr, token string) (*Client, error) {
	c := &Client{addr: addr, token: token}
	cc, err := dialHello(ctx, addr, token)
	if err != nil {
		return nil, err
	}
	c.put(cc)
	return c, nil
}

// dialHello connects to addr and runs the client half of the hello
// exchange — the one every client of the wire opens with, query clients
// and the lease agent alike. A refusal decodes to its typed sentinel
// (ErrAuth, ErrVersion, ErrDraining).
func dialHello(ctx context.Context, addr, token string) (*clientConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &clientConn{conn: conn, in: frameReader{br: bufio.NewReader(conn)}}
	cc.out = appendHello(nil, helloFrame{Version: protoVersion, Token: token})
	ack, err := roundTrip(ctx, cc, decodeHelloAck)
	if err != nil {
		return nil, err
	}
	if ack.Code != 0 {
		conn.Close()
		return nil, semtree.DecodeError(ack.Code, ack.Msg, 0)
	}
	return cc, nil
}

// roundTrip runs one request/response exchange on cc: it writes the
// frame in cc.out, and decode must accept the reply. The context's
// deadline caps the connection's reads and writes (the cluster fabric's
// idiom) and plain cancellation snaps them shut. On success the
// deadlines are disarmed, so the connection can be pooled. On any
// failure the connection is closed — framing cannot be resynchronized
// after a lost or foreign frame — and the context's own error is
// preferred over the transport error it caused (a snapped deadline
// surfaces as a net timeout).
func roundTrip[F any](ctx context.Context, cc *clientConn, decode func([]byte) (F, error)) (F, error) {
	fail := func(err error) (F, error) {
		cc.conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		var zero F
		return zero, err
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	if d, ok := ctx.Deadline(); ok {
		_ = cc.conn.SetDeadline(d)
	}
	stop := context.AfterFunc(ctx, func() { _ = cc.conn.SetDeadline(time.Now()) })
	defer stop()
	if err := writeFrame(cc.conn, cc.out); err != nil {
		return fail(err)
	}
	payload, err := cc.in.readFrame()
	if err != nil {
		return fail(err)
	}
	f, err := decode(payload)
	if err != nil {
		return fail(err)
	}
	_ = cc.conn.SetDeadline(time.Time{})
	return f, nil
}

// get returns a pooled connection or dials a fresh one.
func (c *Client) get(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("serve: client closed")
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	return dialHello(ctx, c.addr, c.token)
}

// put releases a healthy connection back to the pool. A request buffer
// grown past maxFrameBuffer is dropped rather than kept by an idle
// connection (the reply buffer never keeps one; see readFrame).
func (c *Client) put(cc *clientConn) {
	if cap(cc.out) > maxFrameBuffer {
		cc.out = nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.idle) >= maxIdleConns {
		cc.conn.Close()
		return
	}
	c.idle = append(c.idle, cc)
}

// dropIdle closes and forgets every pooled connection.
func (c *Client) dropIdle() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cc := range c.idle {
		cc.conn.Close()
	}
	c.idle = nil
}

// Close closes all pooled connections. In-flight requests on
// checked-out connections finish; their connections close on release.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.dropIdle()
	return nil
}

// Search answers one query over the wire. Options are the facade's own
// query-level options (WithMode, WithK, WithRadius, WithExactFactor);
// scheduler-level options are the server's tenant configuration and are
// ignored here. The context's deadline crosses the wire and bounds the
// server-side execution; its cancellation cuts the local wait. Like
// Searcher.Search, the per-query error is returned both in Result.Err
// and as the second value, and it matches the in-process sentinels
// under errors.Is. A result's strings — every match's terms and
// provenance, and Stats.Protocol — are substrings of one string per
// reply, so keeping any of them keeps that reply's bytes alive.
func (c *Client) Search(ctx context.Context, q triple.Triple, opts ...semtree.SearchOption) (semtree.Result, error) {
	var o semtree.SearchOptions
	for _, opt := range opts {
		opt(&o)
	}
	req := searchFrame{
		Mode:        uint8(o.Mode),
		K:           int64(o.K),
		ExactFactor: int64(o.ExactFactor),
		Radius:      o.Radius,
		Query:       q,
	}
	var lastErr, lastTyped error
	for attempt := 0; attempt < clientRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return semtree.Result{Err: err}, err
		}
		res, err := c.searchOnce(ctx, req)
		if err == nil {
			if Retryable(res.Err) && attempt < clientRetries-1 {
				lastErr, lastTyped = res.Err, res.Err
				continue
			}
			return res, res.Err
		}
		// Context errors and typed rejections are final; transport
		// errors retry on a fresh connection — the frame either never
		// arrived or the answer was lost, and search is idempotent.
		// Fresh means dialled: what killed this connection (a server
		// restart) most likely killed the idle ones with it, and the
		// pool can hold more of them than there are attempts.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return semtree.Result{Err: err}, err
		}
		c.dropIdle()
		lastErr = err
	}
	// When a retry died at the transport (e.g. the draining server
	// stopped listening), the typed refusal an earlier attempt carried
	// is the truthful, actionable answer — surface it over the dial
	// noise.
	if lastTyped != nil {
		lastErr = lastTyped
	}
	return semtree.Result{Err: lastErr}, lastErr
}

func (c *Client) searchOnce(ctx context.Context, req searchFrame) (semtree.Result, error) {
	cc, err := c.get(ctx)
	if err != nil {
		return semtree.Result{}, err
	}
	req.ReqID = c.reqID.Add(1)
	if d, ok := ctx.Deadline(); ok {
		req.Deadline = d.UnixNano()
	}
	cc.out = appendSearch(cc.out[:0], req)
	rf, err := roundTrip(ctx, cc, decodeResult)
	if err != nil {
		return semtree.Result{}, err
	}
	if rf.ReqID != req.ReqID {
		cc.conn.Close()
		return semtree.Result{}, fmt.Errorf("%w: response to request %d, want %d", ErrProtocol, rf.ReqID, req.ReqID)
	}
	c.put(cc)

	res := semtree.Result{Matches: rf.Matches, Stats: rf.Stats}
	if rf.HasErr {
		res.Err = semtree.DecodeError(rf.Code, rf.Msg, rf.Detail)
	}
	return res, nil
}

// Snapshot triggers a server-side Save of the serving index to the
// server's configured snapshot path (admin tenants only) and returns
// the snapshot's byte size. The server saves under its single critical
// section while queries keep running.
func (c *Client) Snapshot(ctx context.Context) (uint64, error) {
	cc, err := c.get(ctx)
	if err != nil {
		return 0, err
	}
	reqID := c.reqID.Add(1)
	cc.out = appendSnapshot(cc.out[:0], snapshotFrame{ReqID: reqID})
	ack, err := roundTrip(ctx, cc, decodeSnapshotAck)
	if err != nil {
		return 0, err
	}
	if ack.ReqID != reqID {
		cc.conn.Close()
		return 0, fmt.Errorf("%w: response to request %d, want %d", ErrProtocol, ack.ReqID, reqID)
	}
	c.put(cc)
	if ack.HasErr {
		return 0, semtree.DecodeError(ack.Code, ack.Msg, ack.Detail)
	}
	return ack.Bytes, nil
}
