package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"slices"

	"semtree/internal/column"
)

// The frame hooks FuzzFabricFrame needs. It lives in package
// cluster_test, so that importing internal/core registers the partition
// protocol's kinds beside this package's test kinds.

// EncodeFrame returns the frame a connection end writes for payload,
// or, when replyErr is not nil, the error reply carrying it, under
// ReqID 0.
func EncodeFrame(from NodeID, deadline int64, payload any, replyErr error) ([]byte, error) {
	var frame column.Frame
	kind, err := new(TCP).encode(frame.Body(), header{from: from, deadline: deadline, err: replyErr}, payload)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	_, err = frame.Send(&out, kind, 0)
	return out.Bytes(), err
}

// ReadFrame reads one frame from b as a connection end does and decodes
// it: the sender's header fields and its payload, or the error an error
// reply carries.
func ReadFrame(b []byte) (from NodeID, deadline int64, payload any, replyErr, err error) {
	var frame column.Frame
	kind, body, _, err := frame.Read(bufio.NewReader(bytes.NewReader(b)), 0)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	var d column.Decoder
	d.Reset(body)
	h, payload, err := decodeBody(&d, kind)
	return h.from, h.deadline, payload, h.err, err
}

// DecodeKind runs kind's registered decoder over b, which it must read
// to the end.
func DecodeKind(kind byte, b []byte) (any, error) {
	if kinds[kind] == nil {
		return nil, errors.New("no decoder registered")
	}
	var d column.Decoder
	d.Reset(b)
	v := kinds[kind](&d)
	return v, d.End()
}

// Kinds returns the kinds importing packages registered — the
// partition protocol's, in the fuzz test's binary — leaving out this
// package's own TestKinds.
func Kinds() []byte {
	var out []byte
	for k, decode := range kinds {
		if decode != nil && !slices.Contains(TestKinds, byte(k)) {
			out = append(out, byte(k))
		}
	}
	return out
}

// TestKinds are the kinds of this package's own test protocol.
var TestKinds = []byte{kindEchoReq, kindEchoResp}

// Fabrics returns a constructor of each fabric, by name.
var Fabrics = fabrics

// EchoReq is the request of this package's test protocol.
type EchoReq = echoReq

// EchoHandler answers an EchoReq.
var EchoHandler = echoHandler
