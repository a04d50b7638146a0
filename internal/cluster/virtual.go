package cluster

import (
	"container/heap"
	"context"
	"sync/atomic"
	"time"
)

// VirtualOptions configure a Virtual fabric.
type VirtualOptions struct {
	// Latency is the virtual transit time per one-way message.
	Latency time.Duration
}

// Virtual is a discrete-event simulation Fabric: each node is a
// single-threaded compute rank with a mailbox; Send schedules a message
// event; Flush runs the event loop, executing handlers for real on the
// driving goroutine while advancing a virtual clock in which ranks
// process in parallel. The virtual service time of a message is the
// measured real execution time of its handler, so relative compute
// costs — shallow routing vs deep descents, bucket splits, degenerate
// chains — carry over faithfully even on a single-CPU host where real
// parallelism is impossible.
//
// This is what the index-building benchmarks (paper Figure 3) run on:
// the paper's 8-node cluster is reproduced as 8 virtual ranks whose
// virtual busy periods overlap.
//
// Concurrency contract: one driving goroutine owns Send/Flush/AddNode
// (handlers run inline inside Flush and may call them re-entrantly —
// that is the same goroutine). Call is stateless with respect to the
// virtual clock — it executes the handler inline and is safe to use
// concurrently (queries, adoption during spills); nested Call work is
// captured in the caller's measured duration automatically.
type Virtual struct {
	opts VirtualOptions

	handlers []Handler
	queue    virtEvents
	seq      int64
	rankFree []time.Duration
	now      time.Duration
	running  bool
	outbox   []virtEvent // messages sent by the currently executing handler

	messages atomic.Int64
	closed   bool
}

type virtEvent struct {
	at   time.Duration
	seq  int64 // FIFO tie-break for determinism
	from NodeID
	to   NodeID
	req  any
}

type virtEvents []virtEvent

func (q virtEvents) Len() int { return len(q) }
func (q virtEvents) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q virtEvents) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *virtEvents) Push(x interface{}) { *q = append(*q, x.(virtEvent)) }
func (q *virtEvents) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// NewVirtual returns a virtual-clock fabric.
func NewVirtual(opts VirtualOptions) *Virtual {
	return &Virtual{opts: opts}
}

// AddNode implements Fabric. It may be called re-entrantly from a
// handler (partition creation during a spill).
func (f *Virtual) AddNode(h Handler) (NodeID, error) {
	if h == nil {
		return 0, ErrUnknownNode
	}
	if f.closed {
		return 0, ErrClosed
	}
	f.handlers = append(f.handlers, h)
	f.rankFree = append(f.rankFree, 0)
	return NodeID(len(f.handlers) - 1), nil
}

// Call implements Fabric: inline execution, no virtual accounting of its
// own (nested calls are captured by the caller's measured duration).
// There is no transit to abandon — the handler runs on the caller's
// goroutine — so cancellation reduces to the upfront check plus the
// handler's own ctx checks.
func (f *Virtual) Call(ctx context.Context, from, to NodeID, req any) (any, error) {
	if f.closed {
		return nil, ErrClosed
	}
	if to < 0 || int(to) >= len(f.handlers) {
		return nil, ErrUnknownNode
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.messages.Add(1)
	return f.handlers[to](ctx, from, req)
}

// Send implements Fabric: it schedules a message event. From the driving
// goroutine outside Flush, the message departs at the current virtual
// time; from inside a handler, it departs when the handler's service
// completes (the outbox is stamped after the duration is measured).
func (f *Virtual) Send(from, to NodeID, req any) error {
	if f.closed {
		return ErrClosed
	}
	if to < 0 || int(to) >= len(f.handlers) {
		return ErrUnknownNode
	}
	f.messages.Add(1)
	f.seq++
	e := virtEvent{seq: f.seq, from: from, to: to, req: req}
	if f.running {
		f.outbox = append(f.outbox, e)
		return nil
	}
	e.at = f.now + f.opts.Latency
	heap.Push(&f.queue, e)
	return nil
}

// Flush implements Fabric: it runs the event loop to exhaustion,
// advancing the virtual clock.
func (f *Virtual) Flush() {
	for f.queue.Len() > 0 {
		e := heap.Pop(&f.queue).(virtEvent)
		start := e.at
		if free := f.rankFree[e.to]; free > start {
			start = free
		}
		f.running = true
		f.outbox = f.outbox[:0]
		t0 := time.Now()
		//semtree:allow ctxfirst: simulated one-way delivery; response discarded, no caller context exists
		_, _ = f.handlers[e.to](context.Background(), e.from, e.req) // one-way: response discarded
		real := time.Since(t0)
		f.running = false

		end := start + real // virtual service time: the handler's measured duration
		f.rankFree[e.to] = end
		if end > f.now {
			f.now = end
		}
		for _, out := range f.outbox {
			out.at = end + f.opts.Latency
			heap.Push(&f.queue, out)
		}
		f.outbox = f.outbox[:0]
	}
}

// VirtualTime returns the current virtual clock: the completion time of
// the latest event processed so far.
func (f *Virtual) VirtualTime() time.Duration { return f.now }

// Stats implements Fabric (message count only: bytes and failures are
// not modeled).
func (f *Virtual) Stats() Stats { return Stats{Messages: f.messages.Load()} }

// Close implements Fabric.
func (f *Virtual) Close() error {
	f.closed = true
	return nil
}
