package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"

	"semtree/internal/column"
)

// A TCP fabric carries one message per frame, column.Frame's with no
// limit, the frame the serving tier's wire uses too:
//
//	frame = kind:byte  length:uvarint  body[length]
//	body  = from:varint  deadline:varint  code:byte  (text | payload)
//
// from is the caller's NodeID and deadline its context deadline in unix
// nanoseconds (0 = none); both are 0 in a reply. code 0 means the body
// ends with a payload of the frame's kind: kinds 1–255 are Messages,
// decoded by the Decode registered for their kind; kind 0 is no payload
// when nothing follows, else the gob fallback (RegisterMessage). Any
// other code makes the frame an error reply of kind 0: text is the
// handler's error, and the code names the sentinel it wraps
// (wireErrors).

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

// kinds is the decoder table RegisterKind fills, by kind.
var kinds [256]Decode

// RegisterKind installs the decoder of a Message kind. Call it from an
// init function, once per kind; kind 0 is the fallback's.
func RegisterKind(kind byte, decode Decode) {
	if kind == 0 || kinds[kind] != nil {
		panic(fmt.Sprintf("cluster: kind %d registered twice or reserved", kind))
	}
	kinds[kind] = decode
}

// header is a frame's fixed fields.
type header struct {
	from     NodeID
	deadline int64 // unix nanoseconds, 0 = none
	err      error // an error reply's handler error
}

// wireErrors are the errors a reply names by code: code i+2 is
// wireErrors[i], and code 1 an error none of them matches. The first
// match wins, so an error wrapping ErrTransient stays retryable.
var wireErrors = [...]error{ErrTransient, ErrClosed, ErrUnknownNode, context.Canceled, context.DeadlineExceeded}

func errorCode(err error) byte {
	for i, s := range wireErrors {
		if errors.Is(err, s) {
			return byte(i + 2)
		}
	}
	return 1
}

// remoteError is a handler's error as its TCP caller sees it: the text
// it crossed the wire as, wrapping the sentinel its code named, so
// errors.Is holds across the wire as it does in process.
type remoteError struct {
	text string
	is   error // nil when no code named one
}

func (e *remoteError) Error() string { return "cluster: remote error: " + e.text }
func (e *remoteError) Unwrap() error { return e.is }

// wire is one end of a connection: buffered reads, and one frame buffer
// both directions share. Frames are column.Frame's, with no limit: a
// bulk load's install carries megabytes.
type wire struct {
	r     *bufio.Reader
	w     io.Writer
	frame column.Frame // the frame being written or the body just read
	dec   column.Decoder
}

func newWire(rw io.ReadWriter) wire { return wire{r: bufio.NewReader(rw), w: rw} }

// encode puts a frame for payload under h into the frame buffer, for
// column.Frame.Send to send, and returns its kind and whether it took
// the gob fallback, the one encoding that can fail.
func (c *wire) encode(h header, payload any) (kind byte, fallback bool, err error) {
	b := c.frame.Body()
	b.Varint(int64(h.from))
	b.Varint(h.deadline)
	if h.err != nil {
		b.Byte(errorCode(h.err))
		b.Text(h.err.Error())
	} else {
		b.Byte(0)
		switch m := payload.(type) {
		case nil:
		case Message:
			kind = m.WireKind()
			m.AppendWire(b)
		default:
			fallback = true
			*b, err = appendGob(*b, payload)
		}
	}
	return kind, fallback, err
}

// decode decodes a frame column.Frame.Read read: its header and its
// payload, or the error an error reply carries in its header.
// Everything it returns is copied out of body.
func (c *wire) decode(kind byte, body []byte) (header, any, error) {
	d := &c.dec
	d.Reset(body)
	h := header{from: NodeID(d.Varint()), deadline: d.Varint()}
	var payload any
	switch code := d.Byte(); {
	case code == 0 && kind == 0:
		var err error
		if payload, err = readGob(d.Rest()); err != nil {
			d.Fail(err)
		}
	case code == 0:
		if read := kinds[kind]; read != nil {
			payload = read(d)
		} else {
			d.Fail(errors.New("no decoder registered"))
		}
	case kind != 0 || int(code) > len(wireErrors)+1:
		d.Fail(fmt.Errorf("error code %d", code))
	default:
		e := &remoteError{text: d.Text()}
		if code > 1 {
			e.is = wireErrors[code-2]
		}
		h.err = e
	}
	err := d.End()
	d.Reset(nil) // the decoder keeps no hold on the frame buffer
	if err != nil {
		return header{}, nil, fmt.Errorf("cluster: frame of kind %d: %w", kind, err)
	}
	return h, payload, nil
}
