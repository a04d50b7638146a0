package serve

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"semtree"
	"semtree/internal/column"
	"semtree/internal/triple"
)

// TestMultiplexParity: 8 goroutines × 200 searches on one Client
// interleave their frames on its one connection and get their replies
// in whatever order the server finishes them. Each must get the
// in-process answer to its own query — a reply routed to the wrong call
// fails here — and the server must have seen one connection.
func TestMultiplexParity(t *testing.T) {
	srv, cl, ref := paritySetup(t)
	type job struct {
		q       triple.Triple
		opts    []semtree.SearchOption
		want    semtree.Result
		wantErr error
	}
	var jobs []job
	for _, q := range testQueries(8) {
		for _, shape := range parityShapes {
			want, wantErr := ref.With(shape.opts...).Search(t.Context(), q)
			jobs = append(jobs, job{q, shape.opts, want, wantErr})
		}
	}
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j := jobs[(w*7+i)%len(jobs)]
				got, err := cl.Search(t.Context(), j.q, j.opts...)
				if d := answerDiff(j.want, j.wantErr, got, err); d != "" {
					t.Errorf("worker %d, search %d: %s", w, i, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := srv.Stats().Conns; n != 1 {
		t.Fatalf("%d connections, want every search on one", n)
	}
}

// TestMultiplexCancelStorm: calls cancelled before they start and while
// they wait share the connection with calls that are not cancelled. A
// cancelled call returns the context's sentinel, or its answer when the
// reply won the race; every other call gets its answer; the connection
// survives it all, so the next search needs no redial.
func TestMultiplexCancelStorm(t *testing.T) {
	srv, cl, ref := paritySetup(t)
	q := testQueries(1)[0]
	want, wantErr := ref.With(semtree.WithK(5)).Search(t.Context(), q)
	const workers, each = 8, 100
	var cancelled atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ctx, cancel := context.WithCancel(t.Context())
				switch i % 4 {
				case 1:
					cancel()
				case 3:
					go cancel()
				}
				got, err := cl.Search(ctx, q, semtree.WithK(5))
				cancel()
				if i%2 == 1 && errors.Is(err, context.Canceled) {
					cancelled.Add(1)
					continue
				}
				if d := answerDiff(want, wantErr, got, err); d != "" {
					t.Errorf("worker %d, search %d: %s", w, i, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cancelled.Load() == 0 {
		t.Fatal("no search was cancelled")
	}
	if _, err := cl.Search(t.Context(), q, semtree.WithK(5)); err != nil {
		t.Fatalf("search after the storm: %v", err)
	}
	if n := srv.Stats().Conns; n != 1 {
		t.Fatalf("%d connections after %d cancelled calls, want 1", n, cancelled.Load())
	}
}

// scriptedPeer is the server end of a Client's connection, answering
// frame by frame as its test says.
type scriptedPeer struct {
	t  *testing.T
	br *bufio.Reader
	in column.Frame
	w  *connWriter
}

// dialScripted dials a Client to a peer that accepts its hello and then
// does nothing on its own.
func dialScripted(t *testing.T) (*Client, *scriptedPeer) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	peers := make(chan *scriptedPeer, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			close(peers)
			return
		}
		p := &scriptedPeer{t: t, br: bufio.NewReader(conn), w: &connWriter{conn: conn}}
		_ = acceptHello(conn, p.br, &p.in, p.w, func(string) error { return nil })
		peers <- p
	}()
	cl, err := Dial(t.Context(), lis.Addr().String(), "tok")
	if err != nil {
		t.Fatal(err)
	}
	p := <-peers
	t.Cleanup(func() {
		cl.Close()
		p.w.conn.Close()
	})
	return cl, p
}

// next reads the next search the client sent.
func (p *scriptedPeer) next() searchFrame {
	p.t.Helper()
	ft, body, _, err := p.in.Read(p.br, maxFrameSize)
	if err != nil {
		p.t.Fatal(err)
	}
	if ft != ftSearch {
		p.t.Fatalf("frame type %d, want a search", ft)
	}
	f, err := decodeSearch(string(body))
	if err != nil {
		p.t.Fatal(err)
	}
	return f
}

// answer replies to request id with a result tagged by its node count.
func (p *scriptedPeer) answer(id uint64, tag int64) {
	p.t.Helper()
	if err := p.w.write(ftResult, func(b []byte) []byte {
		return appendResult(b, resultFrame{ReqID: id, Stats: semtree.ExecStats{NodesVisited: tag}})
	}); err != nil {
		p.t.Fatal(err)
	}
}

// TestMultiplexLateReplyDropped: a call cancelled while it waits
// returns at once, without the connection. The reply the server sends
// it afterwards matches no waiting call and is dropped; the next call,
// in the slot the cancelled one gave up, has a ReqID of its own and gets
// its own reply on the same connection.
func TestMultiplexLateReplyDropped(t *testing.T) {
	cl, p := dialScripted(t)
	q := testQueries(1)[0]
	type outcome struct {
		res semtree.Result
		err error
	}
	search := func(ctx context.Context) <-chan outcome {
		out := make(chan outcome, 1)
		go func() {
			res, err := cl.Search(ctx, q)
			out <- outcome{res, err}
		}()
		return out
	}

	ctx, cancel := context.WithCancel(t.Context())
	abandoned := search(ctx)
	first := p.next()
	cancel()
	if got := <-abandoned; !errors.Is(got.err, context.Canceled) {
		t.Fatalf("a call cancelled while waiting returned %v, want context.Canceled", got.err)
	}

	for tag := int64(1); tag <= 2; tag++ {
		pending := search(t.Context())
		req := p.next()
		if req.ReqID == first.ReqID {
			t.Fatalf("a new call reused the abandoned call's ReqID %d", req.ReqID)
		}
		p.answer(first.ReqID, -1) // late, for a call no longer waiting
		p.answer(req.ReqID, tag)
		got := <-pending
		if got.err != nil || got.res.Stats.NodesVisited != tag {
			t.Fatalf("call %d got the reply tagged %d (%v), want its own, %d", tag, got.res.Stats.NodesVisited, got.err, tag)
		}
	}
}

// TestMultiplexAbandonDrainsReply: a call can stop waiting just as the
// reader delivers its reply, when its context and its reply are ready
// at once. Giving the slot back must drain that reply, or the slot's
// next call would read it — and the reader block on the full slot.
func TestMultiplexAbandonDrainsReply(t *testing.T) {
	m := &muxConn{}
	s, id, err := m.take(ftResult)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.deliver(ftResult, appendResult(nil, resultFrame{ReqID: id})); err != nil {
		t.Fatal(err)
	}
	m.put(s, id) // the call took its context's end, not the reply
	if n := len(s.reply); n != 0 {
		t.Fatalf("%d replies left in a slot given back", n)
	}
}

// TestMultiplexWrongReplyType: a reply of the wrong frame type for a
// waiting call is a protocol error. The call fails and the connection
// closes, rather than a search taking a snapshot's ack for its answer.
func TestMultiplexWrongReplyType(t *testing.T) {
	cl, p := dialScripted(t)
	failed := make(chan error, 1)
	go func() {
		_, err := cl.Search(t.Context(), testQueries(1)[0])
		failed <- err
	}()
	req := p.next()
	if err := p.w.write(ftSnapshotAck, func(b []byte) []byte {
		return appendSnapshotAck(b, snapshotAckFrame{ReqID: req.ReqID})
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-failed; err == nil {
		t.Fatal("a search answered with a snapshot ack succeeded")
	}
	if _, _, _, err := p.in.Read(p.br, maxFrameSize); err == nil {
		t.Fatal("the connection stayed open after a reply of the wrong type")
	}
}

// TestMultiplexCloseEndsReader: Close fails a call still waiting on the
// connection and returns only once the connection's reader goroutine
// has exited.
func TestMultiplexCloseEndsReader(t *testing.T) {
	cl, p := dialScripted(t)
	waiting := make(chan error, 1)
	go func() {
		_, err := cl.Search(t.Context(), testQueries(1)[0])
		waiting <- err
	}()
	p.next()
	mc := cl.mc
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-mc.dead:
	default:
		t.Fatal("Close returned before the reader exited")
	}
	if err := <-waiting; err == nil {
		t.Fatal("a call waiting across Close succeeded")
	}
}

// TestHelloRefusalBeatsClose: a server that refuses a hello writes its
// ack and closes. When the call stops waiting, the ack is in its slot
// and the connection has ended too; the ack must win, so the hello
// fails with ErrAuth every time, never with the connection's end.
func TestHelloRefusalBeatsClose(t *testing.T) {
	for i := 0; i < 20; i++ {
		client, server := net.Pipe()
		go func() {
			_ = acceptHello(server, bufio.NewReader(server), new(column.Frame), &connWriter{conn: server}, func(string) error { return ErrAuth })
			server.Close()
		}()
		conn := &endedConn{Conn: client}
		m := &muxConn{w: connWriter{conn: conn}, dead: make(chan struct{})}
		conn.dead = m.dead
		go m.read(bufio.NewReader(conn))
		if err := m.hello(t.Context(), "tok"); !errors.Is(err, ErrAuth) {
			t.Fatalf("hello %d: err = %v, want ErrAuth", i, err)
		}
	}
}

// endedConn returns from each Write only once dead is closed: by then
// the reply to the frame written has been read, and the connection has
// ended after it.
type endedConn struct {
	net.Conn
	dead chan struct{}
}

func (c *endedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	<-c.dead
	return n, err
}

// TestLeaseReportCancelledMidExchange: a lease report whose context ends
// while the allocator is still answering returns the context's error
// and leaves the connection alone. The grant that arrives late is
// dropped, and the next report gets its own grant on the same
// connection.
func TestLeaseReportCancelledMidExchange(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan struct{}, 2)
	reports := make(chan leaseReportFrame)
	grants := make(chan leaseGrantFrame)
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			accepted <- struct{}{}
			go func() {
				defer conn.Close()
				br, w := bufio.NewReader(conn), &connWriter{conn: conn}
				var in column.Frame
				if acceptHello(conn, br, &in, w, func(string) error { return nil }) != nil {
					return
				}
				for {
					_, body, _, err := in.Read(br, maxFrameSize)
					if err != nil {
						return
					}
					rep, err := decodeLeaseReport(string(body))
					if err != nil {
						return
					}
					reports <- rep
					g := <-grants
					if w.write(ftLeaseGrant, func(b []byte) []byte { return appendLeaseGrant(b, g) }) != nil {
						return
					}
				}
			}()
		}
	}()
	cl := &Client{addr: lis.Addr().String(), token: "fleet-secret"}
	defer cl.Close()

	ctx, cancel := context.WithCancel(t.Context())
	cancelled := make(chan error, 1)
	go func() {
		_, err := cl.lease(ctx, leaseReportFrame{Tenant: "acme", FrontEnd: "fe0", DemandQPS: 1})
		cancelled <- err
	}()
	first := <-reports
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("a report cancelled mid-exchange returned %v, want context.Canceled", err)
	}
	grants <- leaseGrantFrame{ReqID: first.ReqID, Tenant: "acme", TTLNanos: -1} // late

	next := make(chan leaseGrantFrame, 1)
	go func() {
		g, err := cl.lease(t.Context(), leaseReportFrame{Tenant: "acme", FrontEnd: "fe0", DemandQPS: 2})
		if err != nil {
			t.Errorf("the next report: %v", err)
		}
		next <- g
	}()
	second := <-reports
	if second.ReqID == first.ReqID {
		t.Fatalf("the next report reused the cancelled one's ReqID %d", first.ReqID)
	}
	grants <- leaseGrantFrame{ReqID: second.ReqID, Tenant: "acme", Capacity: 10, RefillPerSec: 5, TTLNanos: 1e9}
	if g := <-next; g.Capacity != 10 || g.TTLNanos != 1e9 {
		t.Fatalf("the next report got %+v, want its own grant", g)
	}
	if n := len(accepted); n != 1 {
		t.Fatalf("%d connections, want both reports on one", n)
	}
}
