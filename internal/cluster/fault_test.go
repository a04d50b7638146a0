package cluster_test

// Retry semantics under the fault seam. clustertest imports cluster, so
// these tests live in the external test package.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/cluster/clustertest"
)

func echo(_ context.Context, _ cluster.NodeID, req any) (any, error) { return req, nil }

// block is a request whose payload is a slice, the shape of a partition
// message's columns; it crosses the codec in the gob fallback.
type block struct{ Coords []float64 }

func init() { cluster.RegisterMessage(block{}) }

// TestSeamDelay: an armed delay holds every call that long before the
// inner fabric sees it, and Arm changes it at run time.
func TestSeamDelay(t *testing.T) {
	f := clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{Delay: 2 * time.Millisecond})
	defer f.Close()
	id, _ := f.AddNode(cluster.EchoHandler)
	start := time.Now()
	const calls = 10
	for i := 0; i < calls; i++ {
		if _, err := f.Call(context.Background(), cluster.ClientID, id, cluster.EchoReq{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := time.Since(start); got < calls*2*time.Millisecond {
		t.Fatalf("delay not applied: %v for %d calls", got, calls)
	}
	f.Arm(clustertest.Faults{Delay: time.Hour})
	f.Arm(clustertest.Faults{})
	start = time.Now()
	if _, err := f.Call(context.Background(), cluster.ClientID, id, cluster.EchoReq{}); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got > time.Second {
		t.Fatalf("disarmed delay still applied: %v", got)
	}
	if got := f.Stats().Messages; got != calls+1 {
		t.Fatalf("%d messages counted for %d calls", got, calls+1)
	}
}

// TestSeamCancelUnblocksDelay: a call whose deadline passes in transit
// returns the context's error well before the delay elapses, and still
// counts as a message; the handler never runs.
func TestSeamCancelUnblocksDelay(t *testing.T) {
	f := clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{Delay: 2 * time.Second})
	defer f.Close()
	id, _ := f.AddNode(cluster.EchoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.Call(ctx, cluster.ClientID, id, cluster.EchoReq{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel did not unblock the delay: %v", elapsed)
	}
	if s, c := f.Stats(), f.Counts(); s.Messages != 1 || c.Runs != 0 {
		t.Fatalf("stats %+v, counts %+v: want one message and no handler run", s, c)
	}
	// An already-dead call never becomes a message.
	if _, err := f.Call(ctx, cluster.ClientID, id, cluster.EchoReq{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if got := f.Stats().Messages; got != 1 {
		t.Fatalf("a dead call counted: %d messages", got)
	}
}

// TestSeamDeliversByValue: on every fabric the seam wraps, a handler's
// request shares no backing array with its caller's value, its reply
// shares none with what the handler keeps, and a handler's error
// arrives as TCP delivers it — matching its sentinel, with its text.
func TestSeamDeliversByValue(t *testing.T) {
	for name, mk := range cluster.Fabrics() {
		t.Run(name, func(t *testing.T) {
			f := clustertest.New(mk(), clustertest.Faults{})
			defer f.Close()
			var kept block
			id, _ := f.AddNode(func(_ context.Context, _ cluster.NodeID, req any) (any, error) {
				b := req.(block)
				b.Coords[0] = -1 // a handler writing into its request
				kept = b
				return b, nil
			})
			sent := block{Coords: []float64{1, 2, 3}}
			resp, err := f.Call(context.Background(), cluster.ClientID, id, sent)
			if err != nil {
				t.Fatal(err)
			}
			got := resp.(block)
			if sent.Coords[0] != 1 || &kept.Coords[0] == &sent.Coords[0] {
				t.Fatalf("the handler's request shares the caller's array: sent %v", sent.Coords)
			}
			got.Coords[1] = -2 // a caller writing into its reply
			if kept.Coords[1] != 2 || &got.Coords[0] == &kept.Coords[0] {
				t.Fatalf("the reply shares the handler's array: kept %v", kept.Coords)
			}
			if got.Coords[0] != -1 || got.Coords[2] != 3 {
				t.Fatalf("reply %v, want the handler's values", got.Coords)
			}

			failing, _ := f.AddNode(func(context.Context, cluster.NodeID, any) (any, error) {
				return nil, fmt.Errorf("refused here: %w", cluster.ErrUnknownNode)
			})
			_, err = f.Call(context.Background(), cluster.ClientID, failing, sent)
			//semtree:allow typederr: not classification — the handler's own text must cross the codec beside its identity
			if !errors.Is(err, cluster.ErrUnknownNode) || err.Error() != "refused here: "+cluster.ErrUnknownNode.Error() {
				t.Fatalf("handler error crossed as %v", err)
			}
		})
	}
}

func TestInProcFailureInjectionAndRetry(t *testing.T) {
	f := clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{Seed: 42, DropBefore: 0.5})
	defer f.Close()
	id, _ := f.AddNode(echo)
	failed := 0
	for i := 0; i < 50; i++ {
		if _, err := f.Call(context.Background(), cluster.ClientID, id, "ping"); err != nil {
			if !errors.Is(err, cluster.ErrTransient) {
				t.Fatalf("unexpected error type: %v", err)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("failure injection produced no failures at rate 0.5")
	}
	c := f.Counts()
	if c.Injected() != int64(failed) || f.Stats().Failures != int64(failed) {
		t.Fatalf("%d calls failed; the wrapper counts %+v, Stats %+v", failed, c, f.Stats())
	}
	if c.Runs != 50-int64(failed) {
		t.Fatalf("the handler ran %d times for %d delivered calls: a dropped call reached it", c.Runs, 50-failed)
	}
	// CallRetry should push success probability to ~1 with 20 attempts.
	for i := 0; i < 10; i++ {
		if _, err := cluster.CallRetry(context.Background(), f, cluster.ClientID, id, "ping", 20); err != nil {
			t.Fatalf("CallRetry failed: %v", err)
		}
	}
}

func TestCallRetryExhaustsTransient(t *testing.T) {
	f := clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{Seed: 1, DropBefore: 1})
	defer f.Close()
	id, _ := f.AddNode(echo)
	_, err := cluster.CallRetry(context.Background(), f, cluster.ClientID, id, "ping", 3)
	if err == nil || !errors.Is(err, cluster.ErrTransient) {
		t.Fatalf("want exhausted transient error, got %v", err)
	}
	if got := f.Counts().Injected(); got != 3 {
		t.Fatalf("%d faults injected over 3 attempts, want 3", got)
	}
}

// TestFaultScheduleIsPerEdge: a lost reply is a pure function of (seed,
// edge, sequence number) — the schedule one edge sees does not move when
// another edge's calls interleave with it — and the handler runs before
// the reply is lost, so its runs exceed completed calls.
func TestFaultScheduleIsPerEdge(t *testing.T) {
	schedule := func(interleave bool) []bool {
		f := clustertest.New(cluster.NewInProc(cluster.InProcOptions{}), clustertest.Faults{Seed: 7, DropReplyAfter: 0.3})
		defer f.Close()
		a, _ := f.AddNode(echo)
		b, _ := f.AddNode(echo)
		var lost []bool
		for i := 0; i < 100; i++ {
			if interleave {
				_, _ = f.Call(context.Background(), cluster.ClientID, b, "other edge")
			}
			_, err := f.Call(context.Background(), cluster.ClientID, a, "ping")
			if err != nil && !errors.Is(err, cluster.ErrTransient) {
				t.Fatal(err)
			}
			lost = append(lost, err != nil)
		}
		if c := f.Counts(); c.Lost == 0 || c.Runs <= c.Completed || c.Dropped != 0 {
			t.Fatalf("counts %+v: want lost replies after the handler ran", c)
		}
		return lost
	}
	alone, mixed := schedule(false), schedule(true)
	for i := range alone {
		if alone[i] != mixed[i] {
			t.Fatalf("call %d on the edge: lost=%v alone, %v with another edge interleaved", i, alone[i], mixed[i])
		}
	}
}
