package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"semtree/internal/cluster"
)

// span is one timed interval at a layer boundary. Parent is the span
// that was open around it in the same execution (0: none); Req is the
// query (or write cycle) it belongs to, shared by the spans of one
// request across the layers it is replayed through.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The replay is single
// threaded, but the fabric tap reports from whatever goroutine made the
// call, hence the lock.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// open and req are the innermost span the replay has open and the
	// request it is replaying: what a fabric call reported by the tap
	// is attributed to.
	open atomic.Int64
	req  atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span.
func (t *tracer) add(name string, parent, req int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// around times fn as a span under parent and makes it the open span
// while fn runs. The span's ID is reserved before fn starts, so spans
// recorded meanwhile can name it as their parent.
func (t *tracer) around(name string, parent, req int, fn func(id int)) int {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	t.mu.Unlock()
	prev := t.open.Swap(int64(id))
	t.req.Store(int64(req))
	start := time.Now()
	fn(id)
	end := time.Now()
	t.open.Store(prev)
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	t.mu.Unlock()
	return id
}

// observeCall is the cluster.Observe tap: one span per fabric call,
// under whatever span the replay has open. A call made while none is
// open (the correctness checks, the write cycles' set-up) is not part
// of the trace.
func (t *tracer) observeCall(s cluster.CallSample) {
	open := int(t.open.Load())
	if open == 0 {
		return
	}
	end := time.Now()
	t.add("cluster.call", open, int(t.req.Load()), end.Add(-s.RTT), end)
}

// byName returns the spans of one name in the order they were opened,
// which for a replay pass is request order.
func (t *tracer) byName(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (children may overlap each
// other and are clipped to the parent).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upto), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// micros is the median of durations in µs.
func micros(ds []time.Duration) float64 { return medianDur(ds, time.Microsecond) }

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

// medianOf is the median duration, in µs, of the spans of one name.
func (t *tracer) medianOf(name string) float64 { return micros(durations(t.byName(name))) }
