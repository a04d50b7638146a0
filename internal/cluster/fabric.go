// Package cluster is the distributed-runtime substrate under SemTree.
// The paper runs partitions on the compute nodes of an 8-processor
// cluster and navigates across them "by a proper communication protocol
// (in our implementation based on MPJ libraries)" (§III-B.1). This
// package provides the equivalent: a Fabric of named nodes exchanging
// synchronous request/response messages, with two implementations —
//
//   - InProc: in-process transport with configurable per-message
//     latency and message accounting. It is the default fabric of a
//     tree and what the bench figures and the repo benchmark's
//     in-process workloads run on. It injects no faults: the tests'
//     fault seam is a wrapper around any Fabric, clustertest.Fabric,
//     which drops a call before it leaves or its reply after the
//     handler ran.
//   - TCP: a real network transport over loopback that also counts the
//     bytes it moves, used by the distributed example, the integration
//     tests and the repo benchmark's nine-partition workload. A message
//     crosses it as one frame (frame.go): a small header, then the
//     payload in the hand-written codec its type registered
//     (RegisterKind), built from internal/column's values. Its
//     connections are long-lived, like the channels between MPJ ranks:
//     a small per-peer idle list, one frame buffer per connection end,
//     one exchange at a time on each.
//
// Request/response is the whole fabric: there is no one-way delivery,
// no queue and no goroutine a node owns. The clock on which Figure 3's
// ranks overlap is a Call-timing wrapper in internal/bench, as Observe
// is the cost model's.
//
// Every Call is context-first: cancellation and deadlines propagate
// with the message. On InProc the simulated transit sleep unblocks when
// the context is done; on TCP the deadline travels in the frame (the
// serving side derives a context from it) and the client connection's
// read/write deadlines are armed from the context, so a caller is never
// stuck waiting for a reply its query no longer wants. A connection
// abandoned that way is closed, never reused: the next caller must not
// inherit its deadline or the reply still owed on it.
//
// Handlers must be safe for concurrent use: a fabric delivers requests
// from many callers at once, exactly like a multithreaded MPJ rank.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"
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
// goroutine (InProc) or a per-connection goroutine (TCP) and must be
// concurrency-safe. A handler only ever runs under its caller's
// context.
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

// CallSample is one completed (or failed) Call as seen by an Observe
// wrapper: the destination node, the caller-observed round-trip wall
// time, the call's error, and the handler's response (nil on error).
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
