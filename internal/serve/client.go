package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"semtree"
	"semtree/internal/column"
	"semtree/internal/mux"
	"semtree/internal/triple"
)

// Client talks to one semtree-serve front-end over one long-lived
// connection that all its calls share (a mux.Conn, the call discipline
// the fabric's TCP transport runs too): each call writes its frame under
// the connection's write lock, one reader goroutine hands every reply to
// the call waiting on its ReqID, and a cancelled call stops waiting
// without touching the socket. It is safe for concurrent use and retries
// typed-retryable failures — ErrDraining and transport errors — on a
// freshly dialled connection. Search results decode to the same types
// the in-process API returns: semtree.Result with matches, ExecStats
// (including the server's protocol choice) and sentinel errors that
// satisfy errors.Is exactly as they would in process.
type Client struct {
	addr  string
	token string

	mu     sync.Mutex        // guards mc and closed
	mc     *mux.Conn[string] // the shared connection; replaced once it has failed
	closed bool
}

// clientRetries is the attempt budget for retryable failures.
const clientRetries = 3

var errClientClosed = errors.New("serve: client closed")

// Dial connects to a front-end and performs the hello exchange, so
// authentication and version failures surface here as the typed
// sentinels (ErrAuth, ErrVersion, ErrDraining) rather than on the
// first query. The context bounds the dial and the hello.
func Dial(ctx context.Context, addr, token string) (*Client, error) {
	c := &Client{addr: addr, token: token}
	if _, err := c.conn(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// call is exchange on the shared connection.
func (c *Client) call(ctx context.Context, ft uint8, decode mux.Decode[string], build func(b []byte, id uint64) []byte) (string, error) {
	m, err := c.conn(ctx)
	if err != nil {
		return "", err
	}
	return exchange(ctx, m, ft, decode, build)
}

// exchange sends a frame of type ft on m, its body appended by build for
// its ReqID, and returns the body of the reply decode takes. A frame
// over the cap or cut short, either way, is ErrProtocol.
func exchange(ctx context.Context, m *mux.Conn[string], ft uint8, decode mux.Decode[string], build func(b []byte, id uint64) []byte) (string, error) {
	body, _, err := m.Call(ctx, func(b *column.Appender, id uint64) (byte, error) {
		*b = build(*b, id)
		return ft, nil
	}, decode)
	return body, protocolErr(err)
}

// replyOf returns the decode of a reply of frame type want: a copy of
// its body, for want's decoder. A reply of another type is a protocol
// error, which ends the connection.
func replyOf(want uint8) mux.Decode[string] {
	return func(ft uint8, d *column.Decoder) (string, error) {
		if ft != want {
			return "", fmt.Errorf("%w: frame type %d answers a call that wants %d", ErrProtocol, ft, want)
		}
		return string(d.Rest()), nil
	}
}

// The decodes of the four replies a client waits on, built once.
var (
	helloAckReply    = replyOf(ftHelloAck)
	resultReply      = replyOf(ftResult)
	snapshotAckReply = replyOf(ftSnapshotAck)
	leaseGrantReply  = replyOf(ftLeaseGrant)
)

// conn returns the shared connection, dialling one when the last has
// failed: a call retried after a transport error runs on a fresh dial,
// never on what killed the last attempt, and calls that arrive during
// the dial wait for it rather than dial their own. The hello is the new
// connection's first call.
func (c *Client) conn(ctx context.Context) (*mux.Conn[string], error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if c.mc != nil && c.mc.Err() == nil {
		return c.mc, nil
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	m := mux.New[string](conn, maxFrameSize)
	if err := hello(ctx, m, c.token); err != nil {
		m.Close(err)
		return nil, err
	}
	c.mc = m
	return m, nil
}

// hello runs the client half of the hello exchange, the one every
// client of the wire opens with, query clients and the lease agent
// alike. A refusal decodes to its typed sentinel (ErrAuth, ErrVersion,
// ErrDraining).
func hello(ctx context.Context, m *mux.Conn[string], token string) error {
	body, err := exchange(ctx, m, ftHello, helloAckReply, func(b []byte, id uint64) []byte {
		return appendHello(b, helloFrame{ReqID: id, Version: protoVersion, Token: token})
	})
	if err != nil {
		return err
	}
	ack, err := decodeHelloAck(body)
	if err != nil {
		return err
	}
	if ack.Code != 0 {
		return semtree.DecodeError(ack.Code, ack.Msg, 0)
	}
	return nil
}

// Close closes the connection and returns once its reader has exited.
// Calls still waiting on it fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	mc := c.mc
	c.mu.Unlock()
	if mc != nil {
		mc.Close(errClientClosed)
	}
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
	// An option may keep the pointer it is handed, so the options live
	// on the heap, built only when there are any.
	var o semtree.SearchOptions
	if len(opts) > 0 {
		p := new(semtree.SearchOptions)
		for _, opt := range opts {
			opt(p)
		}
		o = *p
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
		// Context errors are final, and so are protocol errors: a frame
		// too large to send, or one that does not parse, would be again.
		// Transport errors retry on a freshly dialled connection (conn),
		// since the one that failed is dead — the frame either never
		// arrived or the answer was lost, and search is idempotent.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrProtocol) {
			return semtree.Result{Err: err}, err
		}
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
	if d, ok := ctx.Deadline(); ok {
		req.Deadline = d.UnixNano()
	}
	body, err := c.call(ctx, ftSearch, resultReply, func(b []byte, id uint64) []byte {
		req.ReqID = id
		return appendSearch(b, req)
	})
	if err != nil {
		return semtree.Result{}, err
	}
	r, err := decodeResult(body)
	if err != nil {
		return semtree.Result{}, err
	}
	res := semtree.Result{Matches: r.Matches, Stats: r.Stats}
	if r.HasErr {
		res.Err = semtree.DecodeError(r.Code, r.Msg, r.Detail)
	}
	return res, nil
}

// Snapshot triggers a server-side Save of the serving index to the
// server's configured snapshot path (admin tenants only) and returns
// the snapshot's byte size. The server saves under its single critical
// section while queries keep running.
func (c *Client) Snapshot(ctx context.Context) (uint64, error) {
	body, err := c.call(ctx, ftSnapshot, snapshotAckReply, func(b []byte, id uint64) []byte {
		return appendSnapshot(b, snapshotFrame{ReqID: id})
	})
	if err != nil {
		return 0, err
	}
	ack, err := decodeSnapshotAck(body)
	if err != nil {
		return 0, err
	}
	if ack.HasErr {
		return 0, semtree.DecodeError(ack.Code, ack.Msg, ack.Detail)
	}
	return ack.Bytes, nil
}
