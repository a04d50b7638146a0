package mux

import (
	"net"
	"sync"
)

// Server is the serving end of one connection, the counterpart of Conn.
// The wire's read loop decodes each request where it read it and hands
// it to Go, which runs answer on a worker goroutine; answer writes the
// reply through the connection's Writer. A worker that has answered
// parks until Go hands it the next request, as an idle slot waits for
// the next call, so the end keeps at most as many workers as it ever ran
// requests at once and a warmed exchange starts no goroutine. Stop
// refuses requests from then on; Close lets every worker exit.
type Server[J any] struct {
	w      Writer
	answer func(w *Writer, job J)

	mu      sync.Mutex // guards parked, busy, stopped and closed
	parked  []chan J   // idle workers, each waiting on its buffer of one
	busy    int        // requests running
	stopped bool       // Go refuses; quiet is closed once busy is 0
	closed  bool       // a worker that answers exits instead of parking
	quiet   chan struct{}
	workers sync.WaitGroup
}

// NewServer returns the serving end of conn, whose reply frames carry
// bodies of at most limit bytes (0 is no limit), answering each request
// with answer.
func NewServer[J any](conn net.Conn, limit uint64, answer func(w *Writer, job J)) *Server[J] {
	return &Server[J]{w: Writer{Conn: conn, Limit: limit}, answer: answer, quiet: make(chan struct{})}
}

// Writer is the connection's writer, which the workers' replies share
// with whatever the read loop answers itself.
func (s *Server[J]) Writer() *Writer { return &s.w }

// Go hands job to a parked worker, or to a new one when none is parked,
// and reports true. Once Stop or Close has run it starts nothing and
// reports false: the caller answers the job itself.
func (s *Server[J]) Go(job J) bool {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	s.busy++
	if n := len(s.parked); n > 0 {
		next := s.parked[n-1]
		s.parked = s.parked[:n-1]
		s.mu.Unlock()
		next <- job // a parked worker's buffer is empty
		return true
	}
	s.workers.Add(1)
	s.mu.Unlock()
	go s.work(make(chan J, 1), job)
	return true
}

// work answers job, then each job handed to it on next, until the end
// is closed.
func (s *Server[J]) work(next chan J, job J) {
	defer s.workers.Done()
	for ok := true; ok; job, ok = <-next {
		s.answer(&s.w, job)
		if !s.park(next) {
			return
		}
	}
}

// park counts a request answered and parks its worker on next, or
// reports false when the end is closed and the worker is to exit.
func (s *Server[J]) park(next chan J) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy--
	if s.stopped && s.busy == 0 {
		close(s.quiet)
	}
	if s.closed {
		return false
	}
	s.parked = append(s.parked, next)
	return true
}

// Stop makes Go refuse every request from now on and returns a channel
// that is closed once the running ones have been answered. The
// connection stays open: its read loop answers what Go refuses.
func (s *Server[J]) Stop() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopLocked()
	return s.quiet
}

func (s *Server[J]) stopLocked() {
	if !s.stopped {
		s.stopped = true
		if s.busy == 0 {
			close(s.quiet)
		}
	}
}

// Close ends the serving end once its read loop has: Go refuses from
// now on, parked workers exit at once and running ones as soon as they
// have answered. It does not wait for them; Wait does.
func (s *Server[J]) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopLocked()
	s.closed = true
	for _, next := range s.parked {
		close(next)
	}
	s.parked = nil
}

// Wait returns once every worker has exited, which takes a Close.
func (s *Server[J]) Wait() { s.workers.Wait() }
