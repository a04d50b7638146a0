package main

import (
	"context"
	"runtime"
	"sync"
	"syscall"
	"time"

	"semtree"
	"semtree/internal/triple"
)

// op is one operation of a load phase; i is its arrival index, so
// concurrent clients draw different inputs.
type op func(ctx context.Context, i int) error

// loadResult is what one segment of load observed. A failed operation
// is counted and leaves no sample, so it can never meet a latency limit.
type loadResult struct {
	samples   []sample
	late      []time.Duration // open loop only: send time − due time
	attempted int
	failed    int
}

func (r *loadResult) record(at, lat time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		return
	}
	r.samples = append(r.samples, sample{at: at, lat: lat})
}

func merge(parts []loadResult) loadResult {
	var out loadResult
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		out.late = append(out.late, p.late...)
		out.attempted += p.attempted
		out.failed += p.failed
	}
	return out
}

// phaseLoad collects the segments of one phase, one per round.
type phaseLoad struct {
	seg    segment
	rounds []loadResult
}

func (p *phaseLoad) add(r loadResult) { p.rounds = append(p.rounds, r) }

func (p *phaseLoad) stats() phaseStats {
	rounds := make([][]sample, len(p.rounds))
	for i, r := range p.rounds {
		rounds[i] = r.samples
	}
	return p.seg.stats(rounds)
}

// closedLoop runs `clients` goroutines, each issuing its next operation
// as soon as the previous one returned, until the segment is over. A
// sample counts at the instant it completed. first offsets the arrival
// indices, so successive rounds draw different inputs.
func closedLoop(ctx context.Context, clients int, sg segment, first int, do op) loadResult {
	parts := make([]loadResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &parts[c]
			for i := first + c; ctx.Err() == nil; i += clients {
				t0 := time.Now()
				if t0.Sub(start) >= sg.total() {
					return
				}
				err := do(ctx, i)
				t1 := time.Now()
				r.record(t1.Sub(start), t1.Sub(t0), err)
			}
		}(c)
	}
	wg.Wait()
	return merge(parts)
}

// openLoop issues arrivals on a schedule fixed before the segment
// starts: arrival i is due at start + i/rate, whatever happened to the
// arrivals before it. The calling goroutine is the pacer: it waits for
// each due instant and hands the arrival to a free sender, blocking
// while every sender is busy. An arrival is timed from its due instant
// — so the wait a stall imposes on later arrivals is counted in their
// latency — and none is ever dropped: a late one is sent late and its
// lateness recorded. A sample counts at the instant it was due.
func openLoop(ctx context.Context, rate float64, senders int, sg segment, first int, do op) loadResult {
	total := int(rate * sg.total().Seconds())
	dueAt := func(i int) time.Duration {
		return time.Duration(float64(i) / rate * float64(time.Second))
	}
	parts := make([]loadResult, senders)
	arrivals := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := &parts[s]
			for i := range arrivals {
				due := dueAt(i)
				sent := time.Since(start)
				err := do(ctx, first+i)
				r.late = append(r.late, sent-due)
				r.record(due, time.Since(start)-due, err)
			}
		}(s)
	}
	for i := 0; i < total && ctx.Err() == nil; i++ {
		waitUntil(start.Add(dueAt(i)))
		arrivals <- i
	}
	close(arrivals)
	wg.Wait()
	return merge(parts)
}

// sleepSlack is how early waitUntil stops sleeping and starts yielding:
// a sleep in this sandbox overshoots by up to ~1 ms, far more than the
// latencies the open loop measures.
const sleepSlack = 2 * time.Millisecond

// waitUntil returns at t, not after it: it sleeps while t is far, then
// yields in a loop — to other goroutines and, through the kernel, to
// other processes such as the server under test — so the wake-up is not
// left to a coarse timer and the wait does not hold a core.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > sleepSlack+time.Millisecond {
		time.Sleep(d - sleepSlack)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
		syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// Writer pacing: one cycle every writeEvery is one BulkAdd of
// writeBatch triples followed by writeSingles single Inserts — 320
// triples per 32 ms, a fixed 10 000 triples/s.
const (
	writeEvery   = 32 * time.Millisecond
	writeBatch   = 256
	writeSingles = 64
	writePerCyc  = writeBatch + writeSingles
)

// writeResult holds the two write-path latency series of one segment
// of paced writing.
type writeResult struct {
	batch  loadResult // one BulkAdd(writeBatch) per sample
	single loadResult // one Insert per sample
}

// pacedWriter ingests items into ix at the fixed write rate, one cycle
// per writePerCyc items. A cycle that starts late is not skipped — the
// writer catches up — so the index's final size depends only on the
// number of items. A sample counts at the instant its cycle was due.
func pacedWriter(ctx context.Context, ix *semtree.Index, items []triple.Triple) writeResult {
	var out writeResult
	prov := triple.Provenance{Doc: "churn"}
	start := time.Now()
	for c := 0; (c+1)*writePerCyc <= len(items) && ctx.Err() == nil; c++ {
		due := time.Duration(c) * writeEvery
		waitUntil(start.Add(due))
		chunk := items[c*writePerCyc : (c+1)*writePerCyc]
		batch := make([]semtree.BulkItem, writeBatch)
		for i := range batch {
			batch[i] = semtree.BulkItem{Triple: chunk[i], Prov: prov}
		}
		t0 := time.Now()
		_, err := ix.BulkAdd(ctx, batch)
		out.batch.record(due, time.Since(t0), err)
		for _, tr := range chunk[writeBatch:] {
			t0 = time.Now()
			_, err = ix.Insert(tr, prov)
			out.single.record(due, time.Since(t0), err)
		}
	}
	return out
}
