package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoReq / echoResp are the test protocol.
type echoReq struct{ Msg string }
type echoResp struct {
	Msg  string
	From NodeID
}

func init() {
	RegisterMessage(echoReq{})
	RegisterMessage(echoResp{})
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
			if f.NumNodes() != 2 {
				t.Fatalf("NumNodes = %d", f.NumNodes())
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

func TestInProcFailureInjectionAndRetry(t *testing.T) {
	f := NewInProc(InProcOptions{FailureRate: 0.5, Seed: 42})
	defer f.Close()
	id, _ := f.AddNode(echoHandler)
	sawFailure := false
	for i := 0; i < 50; i++ {
		if _, err := f.Call(context.Background(), ClientID, id, echoReq{}); err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("failure injection produced no failures at rate 0.5")
	}
	if f.Stats().Failures == 0 {
		t.Fatal("failures not counted")
	}
	// CallRetry should push success probability to ~1 with 20 attempts.
	for i := 0; i < 10; i++ {
		if _, err := CallRetry(context.Background(), f, ClientID, id, echoReq{}, 20); err != nil {
			t.Fatalf("CallRetry failed: %v", err)
		}
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

func TestCallRetryExhaustsTransient(t *testing.T) {
	f := NewInProc(InProcOptions{FailureRate: 1.0, Seed: 1})
	defer f.Close()
	id, _ := f.AddNode(echoHandler)
	_, err := CallRetry(context.Background(), f, ClientID, id, echoReq{}, 3)
	if err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("want exhausted transient error, got %v", err)
	}
}

func TestTCPNestedCalls(t *testing.T) {
	// A handler that fans out to another node mid-request, as partition
	// forwarding does.
	f := NewTCP()
	defer f.Close()
	leaf, _ := f.AddNode(echoHandler)
	router, err := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
		return f.Call(ctx, 1, leaf, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.Call(context.Background(), ClientID, router, echoReq{Msg: "routed"})
	if err != nil {
		t.Fatalf("nested call: %v", err)
	}
	if resp.(echoResp).Msg != "routed" {
		t.Fatalf("resp = %#v", resp)
	}
	if f.Stats().Bytes == 0 {
		t.Fatal("TCP bytes not accounted")
	}
}

// TestCallCancelledUpfront: a context that is already done must fail
// the call on every fabric without invoking the handler.
func TestCallCancelledUpfront(t *testing.T) {
	mks := fabrics()
	mks["virtual"] = func() Fabric { return NewVirtual(VirtualOptions{}) }
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			f := mk()
			defer f.Close()
			handled := false
			id, _ := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
				handled = true
				return echoResp{}, nil
			})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := f.Call(ctx, ClientID, id, echoReq{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if handled {
				t.Fatal("handler ran despite a dead context")
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

// TestTCPDeadlinePropagatesToHandler: the envelope carries the caller's
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

// TestTCPCancelUnblocksRead: plain cancellation (no deadline) must snap
// the client connection shut and unblock the reply read.
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
	if f.NumNodes() != 1 {
		t.Fatalf("NumNodes through wrapper = %d", f.NumNodes())
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
