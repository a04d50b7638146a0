package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"semtree"
	"semtree/internal/triple"
)

// Client talks to one semtree-serve front-end over one long-lived
// connection that all its calls share: each call writes its frame under
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

	mu     sync.Mutex // guards mc and closed
	mc     *muxConn   // the shared connection; replaced once it has failed
	closed bool
}

// clientRetries is the attempt budget for retryable failures.
const clientRetries = 3

var errClientClosed = errors.New("serve: client closed")

// clientConn is a connection that runs one exchange at a time, with its
// own frame buffers: the request being written and the reply being read.
// The hello runs on it, and so does the lease agent.
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
	if _, err := c.conn(ctx); err != nil {
		return nil, err
	}
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
// deadlines are disarmed, so the connection can run the next exchange.
// On any failure the connection is closed — framing cannot be
// resynchronized after a lost or foreign frame — and the context's own
// error is preferred over the transport error it caused (a snapped
// deadline surfaces as a net timeout).
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
	// stop reports false once the AfterFunc has started: its deadline may
	// land after the disarm below, so the connection is closed, not kept.
	if !stop() {
		return fail(ctx.Err())
	}
	_ = cc.conn.SetDeadline(time.Time{})
	return f, nil
}

// muxConn is a Client's connection. A call claims a slot in a table
// that grows to the most calls ever in flight at once and is reused from
// then on; the slot's index and use count make up the call's ReqID, so
// the reader finds a reply's slot without a map, and a reply to a call
// that stopped waiting matches no slot and is dropped.
type muxConn struct {
	w  connWriter  // the connection and the frame buffer calls share
	in frameReader // the reader goroutine's alone

	mu    sync.Mutex // guards slots, free and err
	slots []*slot
	free  []uint32 // indexes of idle slots
	err   error    // why the connection ended; nil while it serves

	dead chan struct{} // closed when the reader goroutine exits
}

// slot is one call's place in the table. id is the ReqID it waits on,
// 0 while it waits on none; the reader clears it as it delivers, so a
// slot is answered at most once and its one-reply buffer never blocks.
type slot struct {
	id    uint64
	uses  uint32
	want  uint8 // the frame type the reply must have
	reply chan reply
}

// reply is one decoded answer: a search's result or a snapshot's ack.
type reply struct {
	res resultFrame
	ack snapshotAckFrame
}

// read hands each reply to its call until the connection ends, and then
// ends every call's wait.
func (m *muxConn) read() {
	defer close(m.dead)
	for {
		payload, err := m.in.readFrame()
		if err == nil {
			err = m.deliver(payload)
		}
		if err != nil {
			m.fail(err)
			return
		}
	}
}

// deliver decodes one reply and hands it to the slot waiting on its
// ReqID. A reply of the wrong type or one that does not decode is a
// protocol error, which ends the connection.
func (m *muxConn) deliver(payload []byte) error {
	var r reply
	var id uint64
	var err error
	if len(payload) > 0 && payload[0] == ftSnapshotAck {
		r.ack, err = decodeSnapshotAck(payload)
		id = r.ack.ReqID
	} else {
		r.res, err = decodeResult(payload)
		id = r.res.ReqID
	}
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i := int(uint32(id)) - 1
	if i < 0 || i >= len(m.slots) || m.slots[i].id != id {
		return nil // its call stopped waiting
	}
	s := m.slots[i]
	if s.want != payload[0] {
		return fmt.Errorf("%w: frame type %d answers request %d, want %d", ErrProtocol, payload[0], id, s.want)
	}
	s.id = 0
	//semtree:allow lockedcall: the slot's buffer of one is empty — its id was set, and is cleared here, once per reply — so the send never blocks
	s.reply <- r
	return nil
}

// take claims an idle slot for a call whose reply must be of frame
// type want, and returns it with the call's ReqID.
func (m *muxConn) take(want uint8) (*slot, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, 0, m.err
	}
	if len(m.free) == 0 {
		m.free = append(m.free, uint32(len(m.slots)))
		m.slots = append(m.slots, &slot{reply: make(chan reply, 1)})
	}
	i := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	s := m.slots[i]
	s.uses++
	s.id, s.want = uint64(s.uses)<<32|uint64(i+1), want
	return s, s.id, nil
}

// put returns the slot of the call with ReqID id to the idle list: a
// reply already delivered to it is drained, one still owed will match
// no slot.
func (m *muxConn) put(s *slot, id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.id == id {
		s.id = 0
	} else {
		select {
		case <-s.reply:
		default:
		}
	}
	m.free = append(m.free, uint32(id)-1)
}

// call sends the frame build appends for the ReqID it is given and waits
// for the reply, the context's end or the connection's, whichever comes
// first. The server learns of a deadline from the frame; a call that
// stops waiting leaves the socket alone, for the calls still on it. The
// write has no deadline either: a search frame is small, and the
// server's read loop hands every frame off without waiting on replies.
func (m *muxConn) call(ctx context.Context, want uint8, build func(b []byte, id uint64) []byte) (reply, error) {
	s, id, err := m.take(want)
	if err != nil {
		return reply{}, err
	}
	defer m.put(s, id)
	if err := m.w.write(func(b []byte) []byte { return build(b, id) }); err != nil {
		m.fail(err) // a torn frame leaves the stream out of step
		return reply{}, err
	}
	select {
	case r := <-s.reply:
		return r, nil
	case <-ctx.Done():
		return reply{}, ctx.Err()
	case <-m.dead:
		return reply{}, m.failure()
	}
}

// fail records the first reason the connection ended and closes it,
// which ends the reader and, through dead, every call's wait.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.w.conn.Close()
}

// failure reports why the connection ended, or nil while it serves.
func (m *muxConn) failure() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// conn returns the shared connection, dialling one when the last has
// failed: a call retried after a transport error runs on a fresh dial,
// never on what killed the last attempt, and calls that arrive during
// the dial wait for it rather than dial their own.
func (c *Client) conn(ctx context.Context) (*muxConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if c.mc != nil && c.mc.failure() == nil {
		return c.mc, nil
	}
	cc, err := dialHello(ctx, c.addr, c.token)
	if err != nil {
		return nil, err
	}
	c.mc = &muxConn{w: connWriter{conn: cc.conn, buf: cc.out}, in: cc.in, dead: make(chan struct{})}
	go c.mc.read()
	return c.mc, nil
}

// Close closes the connection and returns once its reader has exited.
// Calls still waiting on it fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	mc := c.mc // Dial leaves no Client without one
	c.mu.Unlock()
	mc.fail(errClientClosed)
	<-mc.dead
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
		// Context errors are final; transport errors retry on a freshly
		// dialled connection (conn), since the one that failed is dead —
		// the frame either never arrived or the answer was lost, and
		// search is idempotent.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
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
	m, err := c.conn(ctx)
	if err != nil {
		return semtree.Result{}, err
	}
	if d, ok := ctx.Deadline(); ok {
		req.Deadline = d.UnixNano()
	}
	r, err := m.call(ctx, ftResult, func(b []byte, id uint64) []byte {
		req.ReqID = id
		return appendSearch(b, req)
	})
	if err != nil {
		return semtree.Result{}, err
	}
	res := semtree.Result{Matches: r.res.Matches, Stats: r.res.Stats}
	if r.res.HasErr {
		res.Err = semtree.DecodeError(r.res.Code, r.res.Msg, r.res.Detail)
	}
	return res, nil
}

// Snapshot triggers a server-side Save of the serving index to the
// server's configured snapshot path (admin tenants only) and returns
// the snapshot's byte size. The server saves under its single critical
// section while queries keep running.
func (c *Client) Snapshot(ctx context.Context) (uint64, error) {
	m, err := c.conn(ctx)
	if err != nil {
		return 0, err
	}
	r, err := m.call(ctx, ftSnapshotAck, func(b []byte, id uint64) []byte {
		return appendSnapshot(b, snapshotFrame{ReqID: id})
	})
	if err != nil {
		return 0, err
	}
	if r.ack.HasErr {
		return 0, semtree.DecodeError(r.ack.Code, r.ack.Msg, r.ack.Detail)
	}
	return r.ack.Bytes, nil
}
