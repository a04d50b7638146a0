package cluster_test

// Retry semantics under the fault seam. clustertest imports cluster, so
// these tests live in the external test package.

import (
	"context"
	"errors"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/cluster/clustertest"
)

func echo(_ context.Context, _ cluster.NodeID, req any) (any, error) { return req, nil }

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
