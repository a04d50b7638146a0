package mux

import (
	"errors"
	"testing"

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
