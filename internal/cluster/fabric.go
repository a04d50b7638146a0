// Package cluster is the distributed-runtime substrate under SemTree.
// The paper runs partitions on the compute nodes of an 8-processor
// cluster and navigates across them "by a proper communication protocol
// (in our implementation based on MPJ libraries)" (§III-B.1). This
// package provides the equivalent: a Fabric of named nodes exchanging
// synchronous request/response messages, with two implementations —
//
//   - InProc: in-process dispatch with message accounting and nothing
//     else — no delay, no fault, no copy. It is the default fabric of a
//     tree and what the bench figures and the repo benchmark's
//     in-process workloads run on. Every simulated network behaviour is
//     the tests' fault seam, clustertest.Fabric, a wrapper around any
//     Fabric: it delays a call, drops it before it leaves or its reply
//     after the handler ran, and delivers every request and reply
//     through the frame codec (RoundTrip), so a handler never holds its
//     caller's memory, as on TCP.
//   - TCP: a real network transport over loopback that also counts the
//     bytes it moves, used by the distributed example, the integration
//     tests and the repo benchmark's nine-partition workload. A message
//     crosses it as one frame (frame.go): a small header, then the
//     payload in the hand-written codec its type registered
//     (RegisterKind), built from internal/column's values. Like the
//     channels between MPJ ranks, its connections are long-lived: one
//     per destination node, shared by every call to it under the
//     serving tier's call discipline (internal/mux).
//
// Request/response is the whole fabric: there is no one-way delivery,
// no queue and no goroutine a node owns. The clock on which Figure 3's
// ranks overlap is a Call-timing wrapper in internal/bench, as Observe
// is the cost model's.
//
// Every Call is context-first: cancellation and deadlines propagate
// with the message. On InProc the handler runs under the caller's
// context; on TCP the deadline travels in the frame (the serving side
// derives a context from it) and a call stops waiting as soon as its
// context ends, giving up only its slot: the connection serves the
// other calls on it, and the reply owed is dropped.
//
// Handlers must be safe for concurrent use: a fabric delivers requests
// from many callers at once, exactly like a multithreaded MPJ rank.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"semtree/internal/errcode"
)

// NodeID names a fabric node (a partition host). The client/coordinator
// uses ClientID.
type NodeID int

// ClientID is the conventional "from" for calls originating outside any
// fabric node (the coordinator / client process).
const ClientID NodeID = -1

// Handler processes one request addressed to a node and returns the
// response. The context is the caller's: it carries the query's
// deadline/cancellation across the fabric (on TCP, reconstructed from
// the wire deadline), and long-running handlers are expected to check
// it and abandon work when it is done. Handlers run on the caller's
// goroutine (InProc) or on a worker of the connection the request came
// in on (TCP) and must be concurrency-safe. A handler only ever runs
// under its caller's context.
//
// The delivery contract: a fabric hands a handler each request value
// at most once, and a fabric that can fail transiently delivers copies
// (TCP decodes one per delivery; InProc never fails in transit, so
// nothing re-sends the caller's value). A handler may thus adopt the
// memory of a request of any kind RegisterPooled did not name, as an
// install adopts its fragment's blocks. A request of a pooled kind is
// the fabric's again once the handler returns — on TCP its serving end
// releases it to the pool the next request of that kind is decoded
// from, and on InProc it is the caller's — so the handler only reads
// it and copies what it keeps, and no goroutine it started may read it
// after it has returned. Its response may alias it: TCP writes the
// reply before the release. The handler never releases it itself.
//
// The reply direction: a handler gives its response up when it returns
// it. A response of the pooled reply kind of a pooled request's calls
// is drawn from that kind's pool by the handler, and the last to read it
// puts it back — on TCP the serving end, once it is written, while the
// caller gets a copy its calling end drew from the pool; on InProc the
// caller, who receives the handler's value itself. A caller releases
// such a reply once it has read it; one that reaches no one (a call
// that stopped waiting, a reply a fault test dropped) is garbage for the
// collector, not a leak. So a handler never answers with a pooled value
// it keeps, and never reads its response after returning it.
type Handler func(ctx context.Context, from NodeID, req any) (any, error)

// Fabric is a set of addressable nodes exchanging request/response
// messages.
type Fabric interface {
	// AddNode registers a handler and returns its address.
	AddNode(h Handler) (NodeID, error)
	// Call delivers req to node `to`, identifying the caller as `from`,
	// and returns the handler's response. It may fail transiently
	// (ErrTransient) when the transport hiccups — before the handler
	// ran or after, with the reply lost; callers that need delivery use
	// CallRetry. When ctx is cancelled or past its deadline the call
	// returns ctx.Err() promptly, abandoning the in-flight reply.
	Call(ctx context.Context, from, to NodeID, req any) (any, error)
	// Stats returns cumulative message accounting.
	Stats() Stats
	// Close releases transport resources. Calls after Close fail.
	Close() error
}

// Stats is cumulative fabric accounting.
type Stats struct {
	Messages int64 // completed calls (including failed ones)
	Bytes    int64 // request and reply frame bytes (TCP only: nothing else encodes)
	Failures int64 // transient failures (TCP's transport errors; clustertest's injected faults)
	Fallback int64 // messages encoded by the gob fallback (TCP only; see RegisterMessage)
}

// ErrTransient marks a delivery failure that may succeed on retry.
var ErrTransient = errors.New("cluster: transient delivery failure")

// ErrClosed is returned by operations on a closed fabric.
var ErrClosed = errors.New("cluster: fabric closed")

// ErrUnknownNode is returned when calling an unregistered address.
var ErrUnknownNode = errors.New("cluster: unknown node")

// The fabric registers its sentinels and the context errors, first of
// all and ErrTransient first, so an error wrapping it stays retryable.
func init() {
	errcode.Register(errcode.Transient, ErrTransient)
	errcode.Register(errcode.Closed, ErrClosed)
	errcode.Register(errcode.UnknownNode, ErrUnknownNode)
	errcode.Register(errcode.Canceled, context.Canceled)
	errcode.Register(errcode.DeadlineExceeded, context.DeadlineExceeded)
}

// CallSample is one completed (or failed) Call as seen by an Observe
// wrapper: the destination node, the caller-observed round-trip wall
// time, the call's error, and the handler's response (nil on error).
// The response is its caller's, and a pooled one goes back to its pool
// once the caller has read it (RegisterPooled): a subscriber reads it
// before it returns and copies what it keeps.
// RTT covers transit both ways plus handler execution; subscribers that
// want pure transit must subtract an estimate of the handler's compute
// (core's cost model does exactly that for responses whose work
// counters it understands).
type CallSample struct {
	To   NodeID
	RTT  time.Duration
	Err  error
	Resp any
}

// Observe wraps a fabric with a latency observation point on Call:
// every Call is timed on the caller's side and reported to obs after it
// completes. This is the hook the adaptive query scheduler's cost model
// subscribes to — estimates must come from the transport boundary, not
// from inside handlers, because only the caller observes the full
// round trip. All other Fabric methods pass through unchanged; obs must
// be safe for concurrent use. A nil obs returns f itself.
func Observe(f Fabric, obs func(CallSample)) Fabric {
	if obs == nil {
		return f
	}
	return &observedFabric{Fabric: f, obs: obs}
}

type observedFabric struct {
	Fabric
	obs func(CallSample)
}

func (o *observedFabric) Call(ctx context.Context, from, to NodeID, req any) (any, error) {
	start := time.Now()
	resp, err := o.Fabric.Call(ctx, from, to, req)
	o.obs(CallSample{To: to, RTT: time.Since(start), Err: err, Resp: resp})
	return resp, err
}

// CallRetry calls f.Call up to attempts times, retrying only transient
// failures. Context errors are never retried — a cancelled query must
// not burn its remaining attempts re-sending a message nobody wants —
// and the context is re-checked between attempts. It returns the last
// error when all attempts fail.
//
// Re-sending req is safe under Handler's delivery contract: only a
// fabric that can fail transiently re-sends, and it delivers a fresh
// copy each time. Whether a request that already applied may apply
// again is the handler's to answer; the partition protocol's writes
// land once, by point ID or by install number.
func CallRetry(ctx context.Context, f Fabric, from, to NodeID, req any, attempts int) (any, error) {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		var resp any
		resp, err = f.Call(ctx, from, to, req)
		if err == nil {
			return resp, nil
		}
		if !errors.Is(err, ErrTransient) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("cluster: %d attempts exhausted: %w", attempts, err)
}
