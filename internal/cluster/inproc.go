package cluster

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// InProcOptions configure the in-process fabric.
type InProcOptions struct {
	// Latency is the simulated network transit per message: slept on
	// the caller's goroutine for Call, and during asynchronous transit
	// (off the sender's goroutine) for Send.
	Latency time.Duration
	// FailureRate is the probability in [0, 1) that a message fails
	// with ErrTransient (Call) or is dropped (Send) before reaching the
	// handler — failure injection for robustness tests.
	FailureRate float64
	// Seed makes failure injection deterministic.
	Seed int64
}

// mailboxSize bounds the one-way messages queued per node. A sender
// that finds the mailbox full blocks until the rank catches up, so a
// pipelined build is paced by its slowest rank instead of growing an
// unbounded queue; 1024 messages is the depth every build in the repo
// has run with.
const mailboxSize = 1024

// InProc is an in-process Fabric. Call invokes the handler
// synchronously on the caller's goroutine after the simulated transit
// delay (a multithreaded RPC endpoint); Send enqueues into the target
// node's mailbox, processed by the node's one worker — a node is a
// single-threaded message-passing rank, which is what makes partition
// parallelism measurable. It is safe for concurrent use.
type InProc struct {
	opts    InProcOptions
	latency atomic.Int64 // current per-message transit, adjustable at runtime

	mu     sync.RWMutex
	nodes  []*inprocNode
	closed bool

	rngMu sync.Mutex
	rng   *rand.Rand

	pending sync.WaitGroup // un-processed Send messages

	messages atomic.Int64
	failures atomic.Int64
}

type inprocNode struct {
	handler Handler
	mailbox chan mailboxMsg
	done    sync.WaitGroup // the mailbox worker
}

type mailboxMsg struct {
	from NodeID
	req  any
}

// NewInProc returns an in-process fabric.
func NewInProc(opts InProcOptions) *InProc {
	f := &InProc{
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	f.latency.Store(int64(opts.Latency))
	return f
}

// SetLatency changes the simulated per-message transit at runtime:
// tests and benchmarks build an index over a fast fabric, then degrade
// the network to measure query behavior under latency (deadline and
// cancellation experiments in particular).
func (f *InProc) SetLatency(d time.Duration) { f.latency.Store(int64(d)) }

// AddNode implements Fabric: it registers the handler and starts the
// node's mailbox worker.
func (f *InProc) AddNode(h Handler) (NodeID, error) {
	if h == nil {
		return 0, ErrUnknownNode
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	n := &inprocNode{handler: h, mailbox: make(chan mailboxMsg, mailboxSize)}
	f.nodes = append(f.nodes, n)
	n.done.Add(1)
	go f.work(n)
	return NodeID(len(f.nodes) - 1), nil
}

// work is the node's mailbox worker: it serializes the node's
// asynchronous message processing until Close closes the mailbox.
func (f *InProc) work(n *inprocNode) {
	defer n.done.Done()
	for msg := range n.mailbox {
		// One-way: response discarded; no caller context to honor.
		//semtree:allow ctxfirst: mailbox deliveries run detached by the documented Fabric.Send contract
		_, _ = n.handler(context.Background(), msg.from, msg.req)
		f.pending.Done()
	}
}

func (f *InProc) node(to NodeID) (*inprocNode, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return nil, ErrClosed
	}
	if to < 0 || int(to) >= len(f.nodes) {
		return nil, ErrUnknownNode
	}
	return f.nodes[to], nil
}

// Call implements Fabric. The simulated transit sleep unblocks when ctx
// is done, so a cancelled query abandons its in-flight message instead
// of paying the full latency; the handler receives ctx and is expected
// to check it during long traversals.
func (f *InProc) Call(ctx context.Context, from, to NodeID, req any) (any, error) {
	n, err := f.node(to)
	if err != nil {
		return nil, err
	}
	// Check before accounting (as Virtual does): an already-dead call
	// never becomes a message. A cancel mid-transit still counts — the
	// message left, only its reply is abandoned.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.messages.Add(1)
	if d := time.Duration(f.latency.Load()); d > 0 {
		if err := sleepCtx(ctx, d); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f.opts.FailureRate > 0 && f.roll() < f.opts.FailureRate {
		f.failures.Add(1)
		return nil, ErrTransient
	}
	return n.handler(ctx, from, req)
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
// A context that can never be cancelled skips the timer machinery.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Send implements Fabric: at-most-once asynchronous delivery into the
// target's mailbox.
func (f *InProc) Send(from, to NodeID, req any) error {
	n, err := f.node(to)
	if err != nil {
		return err
	}
	f.messages.Add(1)
	f.pending.Add(1)
	transit := time.Duration(f.latency.Load())
	dropped := f.opts.FailureRate > 0 && f.roll() < f.opts.FailureRate
	deliver := func() {
		if dropped {
			f.failures.Add(1)
			f.pending.Done()
			return
		}
		n.mailbox <- mailboxMsg{from: from, req: req}
	}
	if transit > 0 {
		go func() {
			time.Sleep(transit)
			deliver()
		}()
		return nil
	}
	deliver()
	return nil
}

// Flush implements Fabric: it waits for all in-flight Send messages,
// including cascades sent by handlers mid-processing.
func (f *InProc) Flush() { f.pending.Wait() }

func (f *InProc) roll() float64 {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	return f.rng.Float64()
}

// Stats implements Fabric. Nothing is encoded in process, so Bytes
// stays zero: byte accounting is the TCP fabric's.
func (f *InProc) Stats() Stats {
	return Stats{
		Messages: f.messages.Load(),
		Failures: f.failures.Load(),
	}
}

// Close implements Fabric: it drains mailboxes and stops the workers.
func (f *InProc) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	nodes := f.nodes
	f.mu.Unlock()
	f.pending.Wait()
	for _, n := range nodes {
		close(n.mailbox)
	}
	for _, n := range nodes {
		n.done.Wait()
	}
	return nil
}
