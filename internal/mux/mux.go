// Package mux is the one call discipline under both TCP wires, the
// serving tier's (internal/serve) and the fabric's (internal/cluster):
// many calls share one long-lived connection. Frames are column.Frame's,
// and every body of a call or its reply opens with the call's ReqID,
// eight big-endian bytes. Each wire keeps its own frame limit and its
// own typing of transport errors; this package returns them as they are.
package mux

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"semtree/internal/column"
)

// Writer serializes frame writes onto one connection: a Conn's calls,
// or a serving end's request handlers, share it and its frame buffer.
type Writer struct {
	Conn  net.Conn
	Limit uint64 // the largest body written; 0 is none

	mu  sync.Mutex
	out column.Frame
}

// Write sends one frame, its body appended by build and of the kind it
// returns, in one Write, and returns its size: 0 when build fails or the
// body is over Limit (column.ErrFrame), and nothing was written.
func (w *Writer) Write(build func(b *column.Appender) (kind byte, err error)) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	kind, err := build(w.out.Body())
	if err != nil {
		return 0, err
	}
	return w.out.Send(w.Conn, kind, w.Limit)
}

// Conn is the calling end of one connection, its replies decoded to T.
// A call waits on a slot in a table that grows to the most calls ever in
// flight at once; the slot's index and use count make up its ReqID, so
// the connection's one reader finds a reply's slot without a map, and a
// reply to a call that stopped waiting matches no slot and is dropped.
// Only a failed read or write, or a reply the reader refuses, ends a
// connection, and with it every call waiting there.
type Conn[T any] struct {
	w Writer

	mu    sync.Mutex // guards slots, free and err
	slots []*slot[T]
	free  []uint32 // indexes of idle slots
	err   error    // why the connection ended; nil while it serves

	dead chan struct{} // closed when the reader goroutine exits
}

// Decode decodes a reply of frame kind kind from d, which holds its
// whole body, ReqID included. An error ends the connection.
type Decode[T any] func(kind byte, d *column.Decoder) (T, error)

// slot is one call's place in the table. id is the ReqID it waits on,
// 0 while it waits on none; the reader clears it as it delivers, so a
// slot is answered at most once and its one-reply buffer never blocks.
type slot[T any] struct {
	id     uint64
	uses   uint32
	decode Decode[T]
	reply  chan T
	size   int // the reply's frame size, set before it is sent
}

// New returns a Conn over conn, whose frames carry bodies of at most
// limit bytes (0 is no limit), and starts its reader.
func New[T any](conn net.Conn, limit uint64) *Conn[T] {
	m := &Conn[T]{w: Writer{Conn: conn, Limit: limit}, dead: make(chan struct{})}
	go m.read(bufio.NewReader(conn))
	return m
}

// read hands each reply to its call until the connection ends.
func (m *Conn[T]) read(br *bufio.Reader) {
	defer close(m.dead)
	var in column.Frame
	var d column.Decoder
	for {
		kind, body, size, err := in.Read(br, m.w.Limit)
		if err == nil {
			err = m.deliver(kind, body, size, &d)
		}
		if err != nil {
			m.fail(err)
			return
		}
	}
}

// deliver decodes a reply with d, by the function of the call waiting on
// its ReqID, into that call's slot. A reply with no ReqID is a bad frame.
// The decode runs outside the lock, so a large reply holds up no other
// call's take or put; a call that stopped waiting meanwhile drops it.
func (m *Conn[T]) deliver(kind byte, body []byte, size int, d *column.Decoder) error {
	if len(body) < 8 {
		return fmt.Errorf("%w: a %d-byte reply has no ReqID", column.ErrFrame, len(body))
	}
	id := binary.BigEndian.Uint64(body)
	m.mu.Lock()
	i := int(uint32(id)) - 1
	if i < 0 || i >= len(m.slots) || m.slots[i].id != id {
		m.mu.Unlock()
		return nil // its call stopped waiting
	}
	s, decode := m.slots[i], m.slots[i].decode
	m.mu.Unlock()
	d.Reset(body)
	v, err := decode(kind, d)
	d.Reset(nil) // the decoder keeps no hold on the frame buffer
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.id == id {
		s.id, s.size = 0, size
		//semtree:allow lockedcall: the slot's buffer of one is empty — its id was set, and is cleared here, once per reply — so the send never blocks
		s.reply <- v
	}
	return nil
}

// take claims an idle slot for a call and returns it with its ReqID.
func (m *Conn[T]) take(decode Decode[T]) (*slot[T], uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, 0, m.err
	}
	if len(m.free) == 0 {
		m.free = append(m.free, uint32(len(m.slots)))
		m.slots = append(m.slots, &slot[T]{reply: make(chan T, 1)})
	}
	i := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	s := m.slots[i]
	s.uses++
	s.id, s.decode = uint64(s.uses)<<32|uint64(i+1), decode
	return s, s.id, nil
}

// put gives back the slot of call id, draining a reply delivered to it;
// one still owed will match no slot.
func (m *Conn[T]) put(s *slot[T], id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.id == id {
		s.id = 0
	} else {
		select {
		case <-s.reply:
		default:
		}
	}
	m.free = append(m.free, uint32(id)-1)
}

// Call writes a frame built by build for the call's ReqID and waits for
// the reply, decoded by decode where it was read, or for the context's
// end or the connection's; it returns the reply and the bytes both
// frames took. A reply already delivered wins over the connection's
// end, so a refusal the peer sends just before it closes reaches its
// call. A call that stops waiting leaves the socket to the calls still
// on it, and a frame that is not written (Writer.Write) fails only its
// call.
func (m *Conn[T]) Call(ctx context.Context, build func(b *column.Appender, id uint64) (byte, error), decode Decode[T]) (T, int, error) {
	var zero T
	s, id, err := m.take(decode)
	if err != nil {
		return zero, 0, err
	}
	defer m.put(s, id)
	sent, err := m.w.Write(func(b *column.Appender) (byte, error) { return build(b, id) })
	if err != nil {
		if sent > 0 {
			m.fail(err) // a torn frame leaves the stream out of step
		}
		return zero, 0, err
	}
	select {
	case v := <-s.reply:
		return v, sent + s.size, nil
	case <-ctx.Done():
		return zero, 0, ctx.Err()
	case <-m.dead:
		select {
		case v := <-s.reply:
			return v, sent + s.size, nil
		default:
			return zero, 0, m.Err()
		}
	}
}

// fail records the first reason the connection ended and closes it,
// which ends the reader and every call's wait.
func (m *Conn[T]) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.w.Conn.Close()
}

// Err reports why the connection ended, or nil while it serves.
func (m *Conn[T]) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Close ends the connection, failing its waiting calls with err, and
// returns once its reader has exited.
func (m *Conn[T]) Close(err error) {
	m.fail(err)
	<-m.dead
}

// Done is closed once the connection has ended and its reader exited.
func (m *Conn[T]) Done() <-chan struct{} { return m.dead }
