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
// RegisterPooled's table, by request kind.
var (
	kinds  [256]Decode
	pooled [256]struct {
		req, reply Pooled
		answer     func(kind byte, d *column.Decoder) (answer, error)
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

// Pooled is a registered kind's pooled decoding: Decode reads a value of
// Kind into one it draws from a pool, and Release takes such a value
// back.
type Pooled struct {
	Kind    byte
	Decode  Decode
	Release func(any)
}

// release gives v back to the pool when it is of the pool's kind.
func (p *Pooled) release(v any) {
	if p.Release != nil && kindOf(v) == p.Kind {
		p.Release(v)
	}
}

// RegisterPooled pools the calls of request kind req.Kind, whose
// replies are of kind reply.Kind, at both ends of a TCP fabric. A value
// drawn from a pool has one owner at a time, and the last to read it
// puts it back:
//
//   - A request is the serving end's. It decodes the request with
//     req.Decode, the handler only borrows it (Handler), and the serving
//     end releases it with req.Release once the reply is written.
//   - A reply is its handler's until the handler returns it, and then
//     the fabric's: a serving end releases it with reply.Release once it
//     is written. The calling end's reader decodes it with reply.Decode
//     and hands it to the call, whose caller owns it and releases it with
//     reply.Release once it has read it. On InProc the handler's reply
//     reaches the caller itself, and RoundTripReply does both ends' part.
//
// A pooled value that reaches no one — the reply to a call that stopped
// waiting, one a fault test dropped, one a caller never releases — is
// garbage, not a leak: the collector takes it as any other. Every other
// decode of either kind (RoundTrip's, a reply to a request of another
// kind) is RegisterKind's, and its value is its receiver's. Call it from
// an init function, after both kinds' RegisterKind.
func RegisterPooled(req, reply Pooled) {
	if pooled[req.Kind].answer != nil || req.Kind == reply.Kind {
		panic(fmt.Sprintf("cluster: kind %d pooled twice, or as its own reply", req.Kind))
	}
	for _, p := range []Pooled{req, reply} {
		if kinds[p.Kind] == nil || p.Decode == nil || p.Release == nil {
			panic(fmt.Sprintf("cluster: kind %d pooled before it is registered", p.Kind))
		}
	}
	pooled[req.Kind].req, pooled[req.Kind].reply = req, reply
	pooled[req.Kind].answer = func(kind byte, d *column.Decoder) (answer, error) {
		var read Decode
		if kind == reply.Kind {
			read = reply.Decode
		}
		return decodeAnswer(d, kind, read), nil
	}
}

// kindOf is the wire kind of v: its own when it is a Message, else the
// fallback's, 0.
func kindOf(v any) byte {
	if m, ok := v.(Message); ok {
		return m.WireKind()
	}
	return 0
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
// that does not decode still returns the ReqID it opens with. A payload
// is read by read when it is not nil — a pooled decoder
// (RegisterPooled) — else by its kind's registered decoder.
func decodeBody(d *column.Decoder, kind byte, read Decode) (header, any, error) {
	h := header{id: d.Uint64(), from: NodeID(d.Varint()), deadline: d.Varint()}
	var payload any
	switch failed := d.Byte(); {
	case failed == 0 && kind == 0:
		var err error
		if payload, err = readGob(d.Rest()); err != nil {
			d.Fail(err)
		}
	case failed == 0:
		if read == nil {
			read = kinds[kind]
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
// through it, and every reply through RoundTripReply, so a fabric it
// wraps hands out values as TCP does.
func RoundTrip(payload any, handlerErr error) (any, error) {
	return roundTrip(payload, handlerErr, nil)
}

// RoundTripReply is RoundTrip for resp, a handler's reply to req, and
// does what both ends of a TCP call do with it (RegisterPooled): it
// releases resp once it is encoded, and decodes a reply of the pooled
// kind answering req's kind into a value drawn from the pool, which its
// receiver owns.
func RoundTripReply(req, resp any, handlerErr error) (any, error) {
	p := &pooled[kindOf(req)].reply
	out, err := roundTrip(resp, handlerErr, p)
	p.release(resp)
	return out, err
}

// roundTrip is RoundTrip decoding a payload of pool's kind with pool's
// decoder when pool is not nil.
func roundTrip(payload any, handlerErr error, pool *Pooled) (any, error) {
	var b column.Appender
	kind, err := new(TCP).encode(&b, header{err: handlerErr}, payload)
	if err != nil {
		return nil, err
	}
	var read Decode
	if pool != nil && pool.Kind == kind {
		read = pool.Decode
	}
	var d column.Decoder
	d.Reset(b)
	h, out, err := decodeBody(&d, kind, read)
	if err != nil {
		return nil, err
	}
	return out, h.err
}
