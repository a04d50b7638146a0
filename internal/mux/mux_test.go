package mux

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"semtree/internal/column"
)

func bodyOf(_ byte, d *column.Decoder) (string, error) { return string(d.Rest()), nil }

// TestAbandonDrainsReply: a call can stop waiting just as the reader
// delivers its reply, when its context and its reply are ready at once.
// Giving the slot back must drain that reply, or the slot's next call
// would read it — and the reader block on the full slot.
func TestAbandonDrainsReply(t *testing.T) {
	m := &Conn[string]{}
	s, id, err := m.take(bodyOf)
	if err != nil {
		t.Fatal(err)
	}
	var body column.Appender
	body.Uint64(id)
	var d column.Decoder
	if err := m.deliver(1, body, 10, &d); err != nil {
		t.Fatal(err)
	}
	m.put(s, id) // the call took its context's end, not the reply
	if n := len(s.reply); n != 0 {
		t.Fatalf("%d replies left in a slot given back", n)
	}
}

// TestShortReplyEndsConnection: a reply too short to hold a ReqID
// cannot be routed, so it is a bad frame (column.ErrFrame, which each
// wire types as its own transport error), not a reply to drop.
func TestShortReplyEndsConnection(t *testing.T) {
	m := &Conn[string]{}
	var d column.Decoder
	if err := m.deliver(1, []byte{1, 2, 3}, 5, &d); !errors.Is(err, column.ErrFrame) {
		t.Fatalf("a 3-byte reply: err = %v, want column.ErrFrame", err)
	}
}

// echoServer runs a serving end over one end of a pipe, answering each
// call with its ReqID after answer's wait, and returns a Conn over the
// other end and the serving end; done is closed once the serving end's
// read loop has exited and closed the end.
func echoServer(wait func()) (c *Conn[string], end *Server[uint64], done chan struct{}) {
	client, server := net.Pipe()
	end = NewServer(server, 0, func(w *Writer, id uint64) {
		wait()
		_, _ = w.Write(func(b *column.Appender) (byte, error) {
			b.Uint64(id)
			return 1, nil
		})
	})
	done = make(chan struct{})
	go func() { // the wire's read loop
		defer close(done)
		defer end.Close()
		br := bufio.NewReader(server)
		var in column.Frame
		for {
			_, body, _, err := in.Read(br, 0)
			if err != nil {
				return
			}
			end.Go(binary.BigEndian.Uint64(body))
		}
	}()
	return New[string](client, 0), end, done
}

func echoCall(c *Conn[string]) error {
	_, _, err := c.Call(context.Background(), func(b *column.Appender, id uint64) (byte, error) {
		b.Uint64(id)
		return 1, nil
	}, bodyOf)
	return err
}

// workerCount counts a serving end's live workers, parked and running.
func (s *Server[J]) workerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.parked) + s.busy
}

// busyCount counts the requests a serving end is running.
func (s *Server[J]) busyCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
}

// TestServingEndReusesGoroutines: a serving end parks its workers
// between requests. Sequential calls reuse one worker, so the goroutine
// count does not grow with them; a burst of blocking calls runs on one
// worker per call in flight, and a second burst on the same ones; and
// once the connection ends every worker exits. A worker counts from the
// moment it takes a request to the moment it parks, after its reply is
// out, so a call that follows a reply at once may find none parked and
// start one: the bounds allow two such.
func TestServingEndReusesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	var gate chan struct{} // set before each burst, read by the handlers it releases
	var running atomic.Int32
	c, end, done := echoServer(func() {
		if gate != nil {
			running.Add(1)
			<-gate
		}
	})
	sequential := func(n int) {
		for range n {
			if err := echoCall(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	sequential(100)
	warm := runtime.NumGoroutine()
	sequential(1000)
	if n := runtime.NumGoroutine(); n > warm+2 {
		t.Errorf("1000 sequential calls: %d goroutines, %d after 100 calls", n, warm)
	}

	const burst = 32
	for round := range 2 {
		gate = make(chan struct{})
		running.Store(0)
		errs := make(chan error, burst)
		for range burst {
			go func() { errs <- echoCall(c) }()
		}
		for running.Load() < burst {
			time.Sleep(time.Millisecond)
		}
		if n := end.workerCount(); n < burst || n > burst+2 {
			t.Errorf("burst %d: %d calls blocked in their handlers on %d workers, want one each (and 2 more at most, still parking after the calls before)", round, burst, n)
		}
		if n := runtime.NumGoroutine(); n > warm+2*burst+2 {
			t.Errorf("burst %d: %d goroutines with %d calls blocked, %d before", round, n, burst, warm)
		}
		close(gate)
		for range burst {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	gate = nil

	c.Close(errors.New("test over"))
	<-done
	end.Wait()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the connection ended, %d before it began", runtime.NumGoroutine(), base)
		}
	}
}

// TestWarmedGoStartsNoGoroutine: handing a request to a parked worker
// allocates nothing, where starting a goroutine would.
func TestWarmedGoStartsNoGoroutine(t *testing.T) {
	answered := make(chan struct{}, 1)
	end := NewServer(nil, 0, func(*Writer, int) { answered <- struct{}{} })
	defer end.Wait()
	defer end.Close()
	exchange := func() {
		end.Go(1)
		<-answered
		for end.workerCount() != 1 || end.busyCount() != 0 {
			runtime.Gosched() // the worker is on its way to parking
		}
	}
	exchange()
	if got := testing.AllocsPerRun(100, exchange); got != 0 {
		t.Fatalf("%.1f allocs per request handed to a parked worker, want 0", got)
	}
}

// TestStopRefusesAndWaits: once stopped a serving end runs nothing new,
// and its channel closes when the requests it was running have been
// answered.
func TestStopRefusesAndWaits(t *testing.T) {
	release := make(chan struct{})
	end := NewServer(nil, 0, func(*Writer, int) { <-release })
	defer end.Wait()
	defer end.Close()
	if !end.Go(1) {
		t.Fatal("a serving end refused its first request")
	}
	quiet := end.Stop()
	if end.Go(2) {
		t.Fatal("a stopped serving end took a request")
	}
	select {
	case <-quiet:
		t.Fatal("Stop's channel closed with a request running")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-quiet
	if again := end.Stop(); again != quiet {
		t.Fatal("a second Stop returned another channel")
	}
}
