package bench

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// TestRankClockScript runs the clock on scripted time: two client
// messages through three ranks, the third added inside a handler, with
// a nested call in the middle of rank 0's and rank 1's work and 10 ms
// per hop. By hand (ms; "→" is a hop, so +10):
//
//	message 1: rank 0 serves 10–13 (1 before its call, 2 after), sends
//	at 11 → rank 1 serves 21–26 (4 + 1), sends at 25 → rank 2, new and
//	free, serves 35–42.
//	message 2: leaves the client at 0 too, but rank 0 is busy until 13:
//	serves 13–16, sends at 14 → arrives 24, rank 1 busy until 26:
//	serves 26–31, sends at 30 → arrives 40, rank 2 busy until 42:
//	serves 42–49.
//
// So a busy rank serialises, nested time is not charged to the caller
// (rank 0 is busy 3 per message although each of its handlers spans
// 15), and latency delays every hop but is nobody's busy time.
func TestRankClockScript(t *testing.T) {
	const ms = time.Millisecond
	c := newRankClock(10 * ms)
	defer c.Close()
	now := time.Unix(0, 0)
	c.now = func() time.Time { return now }
	work := func(d time.Duration) { now = now.Add(d) }
	ctx := context.Background()

	var r0, r1 cluster.NodeID
	r2 := cluster.NodeID(-1) // added by r1's first message
	r0, err := c.AddNode(func(ctx context.Context, _ cluster.NodeID, req any) (any, error) {
		work(1 * ms)
		_, err := c.Call(ctx, r0, r1, req)
		work(2 * ms)
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	r1, err = c.AddNode(func(ctx context.Context, _ cluster.NodeID, req any) (any, error) {
		work(4 * ms)
		if r2 < 0 {
			var err error
			r2, err = c.AddNode(func(context.Context, cluster.NodeID, any) (any, error) {
				work(7 * ms)
				return nil, nil
			})
			if err != nil {
				return nil, err
			}
		}
		_, err := c.Call(ctx, r1, r2, req)
		work(1 * ms)
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Call(ctx, cluster.ClientID, r0, i); err != nil {
			t.Fatal(err)
		}
	}
	if c.makespan != 49*ms {
		t.Errorf("makespan = %v, want 49ms", c.makespan)
	}
	if want := []time.Duration{6 * ms, 10 * ms, 14 * ms}; !reflect.DeepEqual(c.busy, want) {
		t.Errorf("busy = %v, want %v", c.busy, want)
	}
	if want := []time.Duration{16 * ms, 31 * ms, 49 * ms}; !reflect.DeepEqual(c.free, want) {
		t.Errorf("free = %v, want %v", c.free, want)
	}
	if len(c.stack) != 0 {
		t.Errorf("%d frames left on the stack", len(c.stack))
	}
}

// TestRankClockParallelThroughput: §III-C, "using M−1 data partitions,
// we can perform in the best case M−1 parallel operations maximizing
// our throughput". On the rank clock the root rank only routes (its
// spill leaves it a shallow trunk of ~2M−1 nodes) while the data ranks
// carry the leaf work in parallel, so a build over 9 partitions must
// finish at an earlier virtual time than one over 1 — and every point
// must land either way.
func TestRankClockParallelThroughput(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	pts := make([]kdtree.Point, 30000)
	for i := range pts {
		pts[i] = kdtree.Point{Coords: []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}, ID: uint64(i)}
	}
	p := Params{BucketSize: 16, Dims: 3, Latency: 50 * time.Microsecond}
	build := func(m int) time.Duration {
		t.Helper()
		c := newRankClock(p.Latency)
		defer c.Close()
		tr, err := buildDistributed(pts, m, p, c, false)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		makespan := c.makespan
		st, err := tr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Points != len(pts) || st.Partitions != m {
			t.Fatalf("M=%d: %d of %d points on %d partitions", m, st.Points, len(pts), st.Partitions)
		}
		return makespan
	}
	// The clock runs on measured handler time, so a loaded machine can
	// inflate one build: take the better of two, as Fig3 does.
	t1, t9 := min(build(1), build(1)), min(build(9), build(9))
	if t9 >= t1 {
		t.Fatalf("9-partition build (%v) does not finish before the single-partition one (%v)", t9, t1)
	}
}
