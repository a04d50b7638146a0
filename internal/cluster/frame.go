package cluster

import (
	"errors"
	"fmt"

	"semtree/internal/column"
	"semtree/internal/errcode"
)

// A TCP fabric carries one message per frame, column.Frame's with no
// limit, the frame the serving tier's wire uses too:
//
//	frame = kind:byte  length:uvarint  body[length]
//	body  = reqid:8  from:varint  deadline:varint  failed:byte  (payload | error)
//	error = code:uvarint  detail:uvarint  message:text
//
// reqid is the call's ReqID, eight big-endian bytes, as a serve body
// opens with: a reply carries its request's (internal/mux). from is
// the caller's NodeID and deadline its context deadline in unix
// nanoseconds (0 = none); both are 0 in a reply. failed 0 means the
// body ends with a payload of the frame's kind: kinds 1–255 are
// Messages, decoded by the Decode registered for their kind; kind 0 is
// no payload when nothing follows, else the gob fallback
// (RegisterMessage). failed 1 makes the frame an error reply of kind 0,
// coded by internal/errcode as the serving tier's wire codes errors.

// Message is a payload with a hand-written codec: a TCP fabric frames
// it under WireKind, encodes it with AppendWire, and decodes it on the
// other side with the Decode registered for that kind.
type Message interface {
	WireKind() byte
	AppendWire(a *column.Appender)
}

// Decode reads one payload of its kind from d. It reports malformed
// input by failing d (column.Decoder.Fail); bytes it leaves unread
// reject the frame too.
type Decode func(d *column.Decoder) any

// kinds is the decoder table RegisterKind fills, by kind, and pooled
// the serving end's own decoders RegisterPooled pairs with a release.
var (
	kinds  [256]Decode
	pooled [256]struct {
		decode  Decode
		release func(any)
	}
)

// RegisterKind installs the decoder of a Message kind. Call it from an
// init function, once per kind; kind 0 is the fallback's.
func RegisterKind(kind byte, decode Decode) {
	if kind == 0 || kinds[kind] != nil {
		panic(fmt.Sprintf("cluster: kind %d registered twice or reserved", kind))
	}
	kinds[kind] = decode
}

// RegisterPooled gives the requests of a registered kind a decoder of
// their own on a TCP node's serving end, one that may draw the value it
// returns from a pool, and the release that takes each such value back.
// The serving end that decoded a request releases it once the reply to
// it is written, so the handler only borrows it (Handler). Every other
// decode of the kind — a reply, RoundTrip's copy — is RegisterKind's,
// and its value is its receiver's. Call it from an init function, after
// the kind's RegisterKind.
func RegisterPooled(kind byte, decode Decode, release func(any)) {
	if kinds[kind] == nil || pooled[kind].decode != nil {
		panic(fmt.Sprintf("cluster: kind %d pooled twice or not registered", kind))
	}
	pooled[kind].decode, pooled[kind].release = decode, release
}

// header is a frame's fixed fields.
type header struct {
	id       uint64 // the call's ReqID (internal/mux), the same in its reply
	from     NodeID
	deadline int64 // unix nanoseconds, 0 = none
	err      error // an error reply's handler error
}

// encode appends the body of a frame for payload under h to b and
// returns its kind, counting a payload that takes the gob fallback, the
// one encoding that can fail.
func (f *TCP) encode(b *column.Appender, h header, payload any) (kind byte, err error) {
	b.Uint64(h.id)
	b.Varint(int64(h.from))
	b.Varint(h.deadline)
	if h.err != nil {
		code, detail := errcode.Of(h.err)
		b.Byte(1)
		b.Uvarint(uint64(code))
		b.Uvarint(detail)
		b.Text(h.err.Error())
	} else {
		b.Byte(0)
		switch m := payload.(type) {
		case nil:
		case Message:
			kind = m.WireKind()
			m.AppendWire(b)
		default:
			f.fallbacks.Add(1)
			if *b, err = appendGob(*b, payload); err != nil {
				return 0, fmt.Errorf("cluster: encode %T: %w", payload, err)
			}
		}
	}
	return kind, nil
}

// decodeBody decodes the body of a frame of kind kind from d: its
// header and its payload, or the error an error reply carries in its
// header. Everything it returns is copied out of the body, and a body
// that does not decode still returns the ReqID it opens with. A serving
// end decodes its requests with serving set: a kind RegisterPooled
// named takes its pooled decoder.
func decodeBody(d *column.Decoder, kind byte, serving bool) (header, any, error) {
	h := header{id: d.Uint64(), from: NodeID(d.Varint()), deadline: d.Varint()}
	var payload any
	switch failed := d.Byte(); {
	case failed == 0 && kind == 0:
		var err error
		if payload, err = readGob(d.Rest()); err != nil {
			d.Fail(err)
		}
	case failed == 0:
		read := kinds[kind]
		if serving && pooled[kind].decode != nil {
			read = pooled[kind].decode
		}
		if read != nil {
			payload = read(d)
		} else {
			d.Fail(errors.New("no decoder registered"))
		}
	case kind != 0 || failed != 1:
		d.Fail(fmt.Errorf("reply state %d of kind %d", failed, kind))
	default:
		code, detail := errcode.Code(d.Uint32()), d.Uvarint()
		h.err = errcode.Decode(code, d.Text(), detail)
	}
	if err := d.End(); err != nil {
		return header{id: h.id}, nil, fmt.Errorf("cluster: frame of kind %d: %w", kind, err)
	}
	return h, payload, nil
}

// RoundTrip sends payload, or handlerErr when it is not nil, through a
// frame body's codec and back, and returns what the receiving end
// decodes: a copy of payload that shares no memory with it, or
// handlerErr rebuilt from its code, detail and text, as a TCP caller
// sees it. A payload that does not encode or decode returns the reason
// instead. The tests' fault seam (clustertest) delivers every request
// and reply through it, so a fabric it wraps hands out values as TCP
// does.
func RoundTrip(payload any, handlerErr error) (any, error) {
	var b column.Appender
	kind, err := new(TCP).encode(&b, header{err: handlerErr}, payload)
	if err != nil {
		return nil, err
	}
	var d column.Decoder
	d.Reset(b)
	h, out, err := decodeBody(&d, kind, false)
	if err != nil {
		return nil, err
	}
	return out, h.err
}
