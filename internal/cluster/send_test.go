package cluster

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestSendFlushCascade: asynchronous Send delivers through the mailbox,
// and Flush waits not just for the driver's own messages but for the
// cascades handlers send mid-processing — the contract the tree's
// async insert pipeline builds on.
func TestSendFlushCascade(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			f := mk()
			defer f.Close()
			var first, second atomic.Int64
			var relayTo NodeID
			relay, err := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
				first.Add(1)
				return nil, f.Send(0, relayTo, req)
			})
			if err != nil {
				t.Fatal(err)
			}
			sink, err := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
				second.Add(1)
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			relayTo = sink
			for i := 0; i < 3; i++ {
				if err := f.Send(ClientID, relay, echoReq{Msg: "cascade"}); err != nil {
					t.Fatalf("Send: %v", err)
				}
			}
			f.Flush()
			if first.Load() != 3 || second.Load() != 3 {
				t.Fatalf("deliveries = %d relay / %d sink, want 3/3", first.Load(), second.Load())
			}
			if f.Stats().Messages < 6 {
				t.Fatalf("stats = %+v, want >= 6 messages", f.Stats())
			}
		})
	}
}

// TestInProcSendWithTransit: a non-zero latency moves Send delivery off
// the sender's goroutine; Flush still observes it, and SetLatency
// adjusts the transit at runtime.
func TestInProcSendWithTransit(t *testing.T) {
	f := NewInProc(InProcOptions{})
	defer f.Close()
	var got atomic.Int64
	id, err := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
		got.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f.SetLatency(200 * time.Microsecond)
	for i := 0; i < 4; i++ {
		if err := f.Send(ClientID, id, echoReq{}); err != nil {
			t.Fatal(err)
		}
	}
	f.Flush()
	if got.Load() != 4 {
		t.Fatalf("delivered %d, want 4", got.Load())
	}
}

// TestVirtualEventLoop: the discrete-event fabric advances its virtual
// clock by transit latency plus each handler's measured service time
// (the handlers sleep a fixed 2 ms, so the floor is known), including
// for cascades scheduled from inside a handler.
func TestVirtualEventLoop(t *testing.T) {
	const (
		latency = time.Millisecond
		fixed   = 2 * time.Millisecond
	)
	f := NewVirtual(VirtualOptions{Latency: latency})
	defer f.Close()
	var relayTo NodeID
	var sinkRuns int
	relay, err := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
		time.Sleep(fixed)
		return nil, f.Send(0, relayTo, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := f.AddNode(func(ctx context.Context, from NodeID, req any) (any, error) {
		time.Sleep(fixed)
		sinkRuns++
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	relayTo = sink
	for i := 0; i < 3; i++ {
		if err := f.Send(ClientID, relay, echoReq{}); err != nil {
			t.Fatal(err)
		}
	}
	f.Flush()
	if sinkRuns != 3 {
		t.Fatalf("sink ran %d times, want 3", sinkRuns)
	}
	if f.Stats().Messages != 6 {
		t.Fatalf("messages = %d, want 6", f.Stats().Messages)
	}
	// Each hop pays one transit; each delivery at least the fixed
	// service; the three relay deliveries serialize on one rank. The
	// cascade's sink leg departs after the relay's service completes:
	// >= 2 transits + 4 fixed services on the critical path.
	if min := 2*latency + 4*fixed; f.VirtualTime() < min {
		t.Fatalf("virtual time %v, want >= %v", f.VirtualTime(), min)
	}
}
