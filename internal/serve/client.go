package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"semtree"
	"semtree/internal/column"
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

// muxConn is a Client's connection. A call claims a slot in a table
// that grows to the most calls ever in flight at once and is reused from
// then on; the slot's index and use count make up the call's ReqID, so
// the reader finds a reply's slot without a map, and a reply to a call
// that stopped waiting matches no slot and is dropped.
type muxConn struct {
	w connWriter // the connection and the frame buffer calls share

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
	want  uint8       // the frame type the reply must have
	reply chan string // the reply's body, for its call to decode
}

// read hands each reply read through br to its call until the
// connection ends, and then ends every call's wait.
func (m *muxConn) read(br *bufio.Reader) {
	defer close(m.dead)
	var in column.Frame
	for {
		ft, body, _, err := in.Read(br, maxFrameSize)
		if err == nil {
			err = m.deliver(ft, body)
		}
		if err != nil {
			m.fail(protocolErr(err))
			return
		}
	}
}

// deliver hands the body of one reply of type ft to the slot waiting on
// its ReqID, which opens every reply's body. A reply of the wrong type
// for its slot is a protocol error, which ends the connection.
func (m *muxConn) deliver(ft uint8, body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("%w: a %d-byte reply has no ReqID", ErrProtocol, len(body))
	}
	id := binary.BigEndian.Uint64(body)
	m.mu.Lock()
	defer m.mu.Unlock()
	i := int(uint32(id)) - 1
	if i < 0 || i >= len(m.slots) || m.slots[i].id != id {
		return nil // its call stopped waiting
	}
	s := m.slots[i]
	if s.want != ft {
		return fmt.Errorf("%w: frame type %d answers request %d, want %d", ErrProtocol, ft, id, s.want)
	}
	s.id = 0
	//semtree:allow lockedcall: the slot's buffer of one is empty — its id was set, and is cleared here, once per reply — so the send never blocks
	s.reply <- string(body)
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
		m.slots = append(m.slots, &slot{reply: make(chan string, 1)})
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

// call sends a frame of type ft, its body appended by build for the
// ReqID it is given, and waits for the reply of type want — returning
// its body for the caller to decode — or for the context's end or the
// connection's, whichever comes first. A reply already delivered wins
// over the connection's end, so a refusal the server sends just before
// it closes reaches its call. The server learns of a deadline from the
// frame; a call that stops waiting leaves the socket alone, for the
// calls still on it. The write has no deadline either: a request frame
// is small, and the server's read loop hands every frame off without
// waiting on replies. A frame over maxFrameSize is never written: the
// call fails with ErrProtocol, and the connection serves on.
func (m *muxConn) call(ctx context.Context, ft, want uint8, build func(b []byte, id uint64) []byte) (string, error) {
	s, id, err := m.take(want)
	if err != nil {
		return "", err
	}
	defer m.put(s, id)
	if err := m.w.write(ft, func(b []byte) []byte { return build(b, id) }); err != nil {
		if !errors.Is(err, ErrProtocol) {
			m.fail(err) // a torn frame leaves the stream out of step
		}
		return "", err
	}
	select {
	case body := <-s.reply:
		return body, nil
	case <-ctx.Done():
		return "", ctx.Err()
	case <-m.dead:
		select {
		case body := <-s.reply:
			return body, nil
		default:
			return "", m.failure()
		}
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
// the dial wait for it rather than dial their own. The hello is the new
// connection's first call.
func (c *Client) conn(ctx context.Context) (*muxConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if c.mc != nil && c.mc.failure() == nil {
		return c.mc, nil
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	m := &muxConn{w: connWriter{conn: conn}, dead: make(chan struct{})}
	go m.read(bufio.NewReader(conn))
	if err := m.hello(ctx, c.token); err != nil {
		m.fail(err)
		<-m.dead
		return nil, err
	}
	c.mc = m
	return m, nil
}

// hello runs the client half of the hello exchange, the one every
// client of the wire opens with, query clients and the lease agent
// alike. A refusal decodes to its typed sentinel (ErrAuth, ErrVersion,
// ErrDraining).
func (m *muxConn) hello(ctx context.Context, token string) error {
	body, err := m.call(ctx, ftHello, ftHelloAck, func(b []byte, id uint64) []byte {
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
		mc.fail(errClientClosed)
		<-mc.dead
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
	m, err := c.conn(ctx)
	if err != nil {
		return semtree.Result{}, err
	}
	if d, ok := ctx.Deadline(); ok {
		req.Deadline = d.UnixNano()
	}
	body, err := m.call(ctx, ftSearch, ftResult, func(b []byte, id uint64) []byte {
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
	m, err := c.conn(ctx)
	if err != nil {
		return 0, err
	}
	body, err := m.call(ctx, ftSnapshot, ftSnapshotAck, func(b []byte, id uint64) []byte {
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
