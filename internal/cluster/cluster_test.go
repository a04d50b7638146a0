package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semtree/internal/column"
	"semtree/internal/mux"
)

// echoReq / echoResp are the test protocol, with hand-written codecs
// like the partition protocol's; gobEcho takes the gob fallback.
type echoReq struct{ Msg string }
type echoResp struct {
	Msg  string
	From NodeID
}
type gobEcho struct {
	Msg    string
	Coords []float64
}

// Kinds far from the partition protocol's, which the fuzz test's
// binary registers too.
const (
	kindEchoReq byte = 250 + iota
	kindEchoResp
)

func (echoReq) WireKind() byte                  { return kindEchoReq }
func (m echoReq) AppendWire(a *column.Appender) { a.Text(m.Msg) }

func (echoResp) WireKind() byte { return kindEchoResp }
func (m echoResp) AppendWire(a *column.Appender) {
	a.Text(m.Msg)
	a.Varint(int64(m.From))
}

func init() {
	RegisterKind(kindEchoReq, func(d *column.Decoder) any { return echoReq{Msg: d.Text()} })
	RegisterKind(kindEchoResp, func(d *column.Decoder) any { return echoResp{Msg: d.Text(), From: NodeID(d.Varint())} })
	RegisterMessage(gobEcho{})
}

func echoHandler(ctx context.Context, from NodeID, req any) (any, error) {
	r, ok := req.(echoReq)
	if !ok {
		return nil, fmt.Errorf("bad request type %T", req)
	}
	return echoResp{Msg: r.Msg, From: from}, nil
}

// fabrics under test; each constructor returns a fresh fabric.
func fabrics() map[string]func() Fabric {
	return map[string]func() Fabric{
		"inproc": func() Fabric { return NewInProc(InProcOptions{}) },
		"tcp":    func() Fabric { return NewTCP() },
	}
}

func TestFabricBasics(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			f := mk()
			defer f.Close()
			a, err := f.AddNode(echoHandler)
			if err != nil {
				t.Fatalf("AddNode: %v", err)
			}
			b, err := f.AddNode(echoHandler)
			if err != nil {
				t.Fatalf("AddNode: %v", err)
			}
			resp, err := f.Call(context.Background(), a, b, echoReq{Msg: "hi"})
			if err != nil {
				t.Fatalf("Call: %v", err)
			}
			er, ok := resp.(echoResp)
			if !ok || er.Msg != "hi" || er.From != a {
				t.Fatalf("resp = %#v", resp)
			}
			if _, err := f.Call(context.Background(), ClientID, 99, echoReq{}); err == nil {
				t.Fatal("call to unknown node succeeded")
			}
			if s := f.Stats(); s.Messages < 1 {
				t.Fatalf("stats = %+v", s)
			}
		})
	}
}

func TestFabricHandlerError(t *testing.T) {
	boom := errors.New("boom")
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			f := mk()
			defer f.Close()
			id, _ := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
				return nil, boom
			})
			_, err := f.Call(context.Background(), ClientID, id, echoReq{})
			if err == nil {
				t.Fatal("handler error not propagated")
			}
		})
	}
}

// TestCallRetryHandlerTransient: a handler error that wraps
// ErrTransient (a partition whose own nested CallRetry ran out of
// attempts) keeps that identity across the fabric, so the caller's
// CallRetry retries it.
func TestCallRetryHandlerTransient(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			f := mk()
			defer f.Close()
			var reached atomic.Int64
			id, _ := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
				if reached.Add(1) < 3 {
					return nil, fmt.Errorf("downstream: %w", ErrTransient)
				}
				return echoResp{Msg: "third time"}, nil
			})
			resp, err := CallRetry(context.Background(), f, ClientID, id, echoReq{}, 3)
			if err != nil {
				t.Fatalf("CallRetry: %v", err)
			}
			if resp.(echoResp).Msg != "third time" || reached.Load() != 3 {
				t.Fatalf("resp = %#v after %d handler runs, want 3", resp, reached.Load())
			}
		})
	}
}

func TestFabricConcurrentCalls(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			f := mk()
			defer f.Close()
			var ids []NodeID
			for i := 0; i < 4; i++ {
				id, err := f.AddNode(echoHandler)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for w := 0; w < 16; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						to := ids[(w+i)%len(ids)]
						msg := fmt.Sprintf("w%d-%d", w, i)
						resp, err := f.Call(context.Background(), ClientID, to, echoReq{Msg: msg})
						if err != nil {
							errs <- err
							return
						}
						if resp.(echoResp).Msg != msg {
							errs <- fmt.Errorf("wrong echo: %v", resp)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

func TestFabricClose(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			f := mk()
			id, _ := f.AddNode(echoHandler)
			if err := f.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, err := f.Call(context.Background(), ClientID, id, echoReq{}); err == nil {
				t.Fatal("call on closed fabric succeeded")
			}
			if _, err := f.AddNode(echoHandler); err == nil {
				t.Fatal("AddNode on closed fabric succeeded")
			}
		})
	}
}

func TestInProcLatency(t *testing.T) {
	f := NewInProc(InProcOptions{Latency: 2 * time.Millisecond})
	defer f.Close()
	id, _ := f.AddNode(echoHandler)
	start := time.Now()
	const calls = 10
	for i := 0; i < calls; i++ {
		if _, err := f.Call(context.Background(), ClientID, id, echoReq{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := time.Since(start); got < calls*2*time.Millisecond {
		t.Fatalf("latency not applied: %v for %d calls", got, calls)
	}
}

func TestCallRetryGivesUpOnPermanentError(t *testing.T) {
	f := NewInProc(InProcOptions{})
	defer f.Close()
	calls := 0
	id, _ := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
		calls++
		return nil, errors.New("permanent")
	})
	if _, err := CallRetry(context.Background(), f, ClientID, id, echoReq{}, 5); err == nil {
		t.Fatal("expected error")
	}
	if calls != 1 {
		t.Fatalf("permanent error retried %d times", calls)
	}
}

func TestTCPNestedCalls(t *testing.T) {
	// A handler that fans out to another node mid-request, as partition
	// forwarding does — from twelve concurrent callers, so calls on both
	// hops' connections interleave while handlers wait on each other.
	f := NewTCP()
	defer f.Close()
	leaf, _ := f.AddNode(echoHandler)
	router, err := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
		return f.Call(ctx, 1, leaf, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				msg := fmt.Sprintf("routed-%d-%d", w, i)
				resp, err := f.Call(context.Background(), ClientID, router, echoReq{Msg: msg})
				if err != nil {
					t.Errorf("nested call: %v", err)
					return
				}
				if resp.(echoResp).Msg != msg {
					t.Errorf("resp = %#v, want %q", resp, msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if f.Stats().Bytes == 0 {
		t.Fatal("TCP bytes not accounted")
	}
}

// TestCallCancelledUpfront: a context that is already done must fail
// the call on every fabric without invoking the handler.
func TestCallCancelledUpfront(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			f := mk()
			defer f.Close()
			var handled atomic.Int64
			id, _ := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
				handled.Add(1)
				return echoResp{}, nil
			})
			// A live call first: the TCP connection is then dialled, and
			// the dead call has no dial to fail in.
			if _, err := f.Call(context.Background(), ClientID, id, echoReq{}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := f.Call(ctx, ClientID, id, echoReq{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := handled.Load(); got != 1 {
				t.Fatalf("handler ran %d times, want once: the dead context must not reach it", got)
			}
		})
	}
}

// TestInProcCancelUnblocksLatency: cancelling mid-transit must return
// well before the simulated latency elapses.
func TestInProcCancelUnblocksLatency(t *testing.T) {
	f := NewInProc(InProcOptions{Latency: 2 * time.Second})
	defer f.Close()
	id, _ := f.AddNode(echoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.Call(ctx, ClientID, id, echoReq{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel did not unblock the transit sleep: %v", elapsed)
	}
}

// TestTCPDeadlinePropagatesToHandler: the frame header carries the caller's
// deadline, so the remote handler's context expires and the call
// returns around the deadline instead of hanging on a stuck handler.
func TestTCPDeadlinePropagatesToHandler(t *testing.T) {
	f := NewTCP()
	defer f.Close()
	sawDeadline := make(chan bool, 1)
	id, _ := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
		_, ok := ctx.Deadline()
		sawDeadline <- ok
		<-ctx.Done() // a handler that only yields when the query expires
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.Call(ctx, ClientID, id, echoReq{})
	if err == nil {
		t.Fatal("expired call succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the call: %v", elapsed)
	}
	if !<-sawDeadline {
		t.Fatal("handler context carried no deadline")
	}
}

// TestTCPCancelUnblocksRead: plain cancellation (no deadline) must end
// the call's wait for a reply that is not coming.
func TestTCPCancelUnblocksRead(t *testing.T) {
	f := NewTCP()
	defer f.Close()
	release := make(chan struct{})
	id, _ := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
		<-release // no wire deadline: the handler would block forever
		return echoResp{}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := f.Call(ctx, ClientID, id, echoReq{})
	close(release)
	if err == nil {
		t.Fatal("cancelled call succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel did not unblock the read: %v", elapsed)
	}
}

// TestObserve: the Observe wrapper must time every Call at the caller's
// boundary — including the simulated transit — report errors and
// responses faithfully, and pass every other Fabric method through.
func TestObserve(t *testing.T) {
	inner := NewInProc(InProcOptions{Latency: 2 * time.Millisecond})
	var (
		mu      sync.Mutex
		samples []CallSample
	)
	f := Observe(inner, func(s CallSample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	})
	defer f.Close()
	a, err := f.AddNode(echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.Call(context.Background(), ClientID, a, echoReq{Msg: "observed"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Call(context.Background(), ClientID, NodeID(99), echoReq{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node through wrapper: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(samples) != 2 {
		t.Fatalf("observed %d samples, want 2", len(samples))
	}
	if samples[0].Err != nil || samples[0].To != a || samples[0].Resp != resp {
		t.Fatalf("success sample wrong: %+v", samples[0])
	}
	if samples[0].RTT < 2*time.Millisecond {
		t.Fatalf("RTT %v does not cover the simulated transit", samples[0].RTT)
	}
	if !errors.Is(samples[1].Err, ErrUnknownNode) || samples[1].Resp != nil {
		t.Fatalf("failure sample wrong: %+v", samples[1])
	}
	if f.Stats().Messages != inner.Stats().Messages {
		t.Fatal("Stats not passed through")
	}
	// A nil observer is the identity.
	if got := Observe(inner, nil); got != Fabric(inner) {
		t.Fatal("Observe(nil) must return the fabric unchanged")
	}
}

// callBytes makes one echo call and returns the bytes it moved.
func callBytes(t *testing.T, f Fabric, to NodeID, msg string) int64 {
	t.Helper()
	before := f.Stats().Bytes
	resp, err := f.Call(context.Background(), ClientID, to, echoReq{Msg: msg})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got := resp.(echoResp).Msg; got != msg {
		t.Fatalf("echo = %d bytes, want the %d sent", len(got), len(msg))
	}
	return f.Stats().Bytes - before
}

// clientConn returns the connection calls to node id share, nil before
// the first.
func clientConn(f *TCP, id NodeID) *mux.Conn[answer] {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes[id].conn
}

// TestTCPConnectionReuse: a frame carries no stream state, so a steady
// exchange costs the same bytes every time — the first one included —
// and every call to one peer, sequential or concurrent, runs on the one
// connection the first call dialled.
func TestTCPConnectionReuse(t *testing.T) {
	f := NewTCP()
	defer f.Close()
	id, _ := f.AddNode(echoHandler)
	first := callBytes(t, f, id, "ping")
	c := clientConn(f, id)
	for i := 0; i < 4; i++ {
		if got := callBytes(t, f, id, "ping"); got != first {
			t.Fatalf("call %d moved %d bytes, the first %d", i+2, got, first)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				msg := fmt.Sprintf("w%d-%d", w, i)
				if resp, err := f.Call(context.Background(), ClientID, id, echoReq{Msg: msg}); err != nil || resp.(echoResp).Msg != msg {
					t.Errorf("concurrent call: %#v, %v", resp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := clientConn(f, id); got != c || c.Err() != nil {
		t.Fatalf("the peer's connection changed or ended after sequential and concurrent calls (%v)", c.Err())
	}
}

// TestTCPLargeExchangePooled: a connection that carried a 1 MiB
// exchange serves the calls after it, but neither of its ends keeps the
// frame buffer that grew to it.
func TestTCPLargeExchangePooled(t *testing.T) {
	f := NewTCP()
	defer f.Close()
	id, _ := f.AddNode(echoHandler)
	callBytes(t, f, id, "ping")
	c := clientConn(f, id)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	callBytes(t, f, id, strings.Repeat("x", 1<<20))
	// The serving end drops its buffer just after it writes the reply:
	// wait, within a bound, for the heap to come back down.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		runtime.ReadMemStats(&after)
		kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if kept <= 1<<19 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the heap kept %d bytes after a 1 MiB exchange: a connection end holds its frame", kept)
		}
	}
	callBytes(t, f, id, "ping")
	if got := clientConn(f, id); got != c {
		t.Fatal("a 1 MiB exchange and a ping ran on two connections, want one")
	}
}

// TestTCPFallback: a payload with no codec but registered with
// RegisterMessage crosses as a gob blob, each frame on its own — the
// first and a later one cost the same bytes — and Stats counts both of
// an exchange's frames; a nil payload crosses as none.
func TestTCPFallback(t *testing.T) {
	f := NewTCP()
	defer f.Close()
	echo, _ := f.AddNode(func(_ context.Context, _ NodeID, req any) (any, error) { return req, nil })
	msg := gobEcho{Msg: "fallback", Coords: []float64{1.5, -2}}
	var sizes []int64
	for range 2 {
		before := f.Stats().Bytes
		got, err := f.Call(context.Background(), ClientID, echo, msg)
		if err != nil || !reflect.DeepEqual(got, msg) {
			t.Fatalf("Call = %#v, %v; sent %#v", got, err, msg)
		}
		sizes = append(sizes, f.Stats().Bytes-before)
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("gob frames moved %d then %d bytes: the fallback kept stream state", sizes[0], sizes[1])
	}
	if got, err := f.Call(context.Background(), ClientID, echo, nil); got != nil || err != nil {
		t.Fatalf("nil payload: %#v, %v", got, err)
	}
	if got := f.Stats().Fallback; got != 4 {
		t.Fatalf("Stats.Fallback = %d after two gob exchanges and a nil one, want 4", got)
	}
	if _, err := f.Call(context.Background(), ClientID, echo, struct{ X int }{}); err == nil || errors.Is(err, ErrTransient) {
		t.Fatalf("an unregistered payload: err = %v, want a permanent encode error", err)
	}
	if _, err := f.Call(context.Background(), ClientID, echo, echoReq{Msg: "after"}); err != nil {
		t.Fatalf("a failed encode broke the connection: %v", err)
	}
}

// unknownKind is a Message whose kind has no decoder.
type unknownKind struct{}

func (unknownKind) WireKind() byte              { return 249 }
func (unknownKind) AppendWire(*column.Appender) {}

// TestTCPUndecodableRequest: a request the serving end cannot decode is
// answered with a permanent error, and the connection, read to the end
// of the frame, stays in step and serves the next call.
func TestTCPUndecodableRequest(t *testing.T) {
	f := NewTCP()
	defer f.Close()
	id, _ := f.AddNode(echoHandler)
	if _, err := f.Call(context.Background(), ClientID, id, unknownKind{}); err == nil || errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want a permanent decode error", err)
	}
	c := clientConn(f, id)
	callBytes(t, f, id, "after")
	if got := clientConn(f, id); got != c || c.Err() != nil {
		t.Fatalf("the next call ran on a new connection; the first ended with %v", c.Err())
	}
}

// TestAbandonedCallDoesNotPoisonPool: a call cancelled while its handler
// runs, one whose deadline fires, and one whose deadline passes after
// it returned each leave the peer usable: the next calls get their own
// payloads and no deadline error. On TCP they all run on the one
// connection the first call dialled: an abandoned call gives up its
// slot, not the socket, and a reply that arrives for it is dropped.
func TestAbandonedCallDoesNotPoisonPool(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			f := mk()
			defer f.Close()
			entered := make(chan struct{}, 1)
			release := make(chan struct{})
			defer close(release) // before f.Close: a TCP handler cannot see a plain cancel
			id, _ := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
				if req.(echoReq).Msg == "block" {
					entered <- struct{}{}
					select {
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-release:
					}
				}
				return echoHandler(ctx, from, req)
			})
			healthy := func(msg string) {
				t.Helper()
				for i := 0; i < 8; i++ {
					callBytes(t, f, id, fmt.Sprintf("%s-%d", msg, i))
				}
			}
			healthy("warm")
			var dialled *mux.Conn[answer]
			if tcp, ok := f.(*TCP); ok {
				dialled = clientConn(tcp, id)
			}

			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				<-entered
				cancel()
			}()
			if _, err := f.Call(ctx, ClientID, id, echoReq{Msg: "block"}); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled call: err = %v, want context.Canceled", err)
			}
			healthy("after-cancel")

			ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
			_, err := f.Call(ctx, ClientID, id, echoReq{Msg: "block"})
			cancel()
			if err == nil {
				t.Fatal("expired call succeeded")
			}
			healthy("after-deadline")

			// A deadline that passes once the call is over must reach no
			// later call.
			ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
			if _, err := f.Call(ctx, ClientID, id, echoReq{Msg: "quick"}); err != nil {
				t.Fatalf("call under a deadline: %v", err)
			}
			<-ctx.Done()
			cancel()
			healthy("after-stale-deadline")

			if tcp, ok := f.(*TCP); ok {
				if c := clientConn(tcp, id); c != dialled || c.Err() != nil {
					t.Fatalf("the abandoned calls cost the peer its connection (%v), want the one dialled first", dialled.Err())
				}
			}
		})
	}
}

// TestFabricCloseInFlight: Close with connections open and a call
// still in its handler returns, the call completes, later calls fail
// with ErrClosed, and no goroutine of the fabric outlives it.
func TestFabricCloseInFlight(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			f := mk()
			entered := make(chan struct{})
			release := make(chan struct{})
			echo, _ := f.AddNode(echoHandler)
			slow, _ := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
				close(entered)
				<-release
				return echoHandler(ctx, from, req)
			})
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ { // calls in flight at once, then none
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := f.Call(context.Background(), ClientID, echo, echoReq{Msg: "idle"}); err != nil {
						t.Errorf("warm call: %v", err)
					}
				}()
			}
			wg.Wait()

			inFlight := make(chan error, 1)
			go func() {
				resp, err := f.Call(context.Background(), ClientID, slow, echoReq{Msg: "in flight"})
				if err == nil && resp.(echoResp).Msg != "in flight" {
					err = fmt.Errorf("resp = %#v", resp)
				}
				inFlight <- err
			}()
			<-entered
			closed := make(chan error, 1)
			go func() { closed <- f.Close() }()
			for {
				_, err := f.Call(context.Background(), ClientID, echo, echoReq{})
				if errors.Is(err, ErrClosed) {
					break
				}
				runtime.Gosched()
			}
			close(release)
			if err := <-closed; err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := <-inFlight; err != nil {
				t.Fatalf("the call in flight at Close lost its reply: %v", err)
			}
			if _, err := f.Call(context.Background(), ClientID, slow, echoReq{}); !errors.Is(err, ErrClosed) {
				t.Fatalf("call after Close: err = %v, want ErrClosed", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after Close, %d before the fabric:\n%s",
						runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestTCPCloseUnparksSilentPeer: Close does not depend on the other end
// hanging up — a connection whose peer never sends or closes leaves its
// serve loop parked in Decode, and Close still returns.
func TestTCPCloseUnparksSilentPeer(t *testing.T) {
	f := NewTCP()
	id, _ := f.AddNode(echoHandler)
	silent, err := net.Dial("tcp", f.nodes[id].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// A call on a second connection, so the first has been accepted.
	callBytes(t, f, id, "ping")
	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close is waiting for a serve loop parked in Decode")
	}
}

// TestTCPCallAllocs gates the per-call cost of a warmed connection: a
// return to dialling, or to a gob codec per message (several hundred
// allocations), fails here. A call under a cancellable context may cost
// no more than one under Background: nothing is armed on the socket for
// its cancel.
func TestTCPCallAllocs(t *testing.T) {
	f := NewTCP()
	defer f.Close()
	id, _ := f.AddNode(echoHandler)
	allocs := func(ctx context.Context) float64 {
		call := func() {
			if _, err := f.Call(ctx, ClientID, id, echoReq{Msg: "ping"}); err != nil {
				t.Fatal(err)
			}
		}
		call()
		return testing.AllocsPerRun(200, call)
	}
	background := allocs(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancellable := allocs(ctx)
	t.Logf("%.1f allocs per warmed TCP call, %.1f under a cancellable context", background, cancellable)
	if background > 12 {
		t.Fatalf("%.0f allocs per warmed TCP call, want at most 12", background)
	}
	if cancellable > background {
		t.Fatalf("%.0f allocs per warmed TCP call under a cancellable context, want at most Background's %.0f", cancellable, background)
	}
}

func BenchmarkTCPCall(b *testing.B) {
	f := NewTCP()
	defer f.Close()
	id, _ := f.AddNode(echoHandler)
	ctx := context.Background()
	req := echoReq{Msg: "ping"}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := f.Call(ctx, ClientID, id, req); err != nil {
			b.Fatal(err)
		}
	}
}
