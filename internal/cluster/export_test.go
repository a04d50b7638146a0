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

// EncodeFrame returns the frame a connection end writes for payload.
func EncodeFrame(from NodeID, deadline int64, payload any) ([]byte, error) {
	var out bytes.Buffer
	c := wire{w: &out}
	kind, _, err := c.encode(header{from: from, deadline: deadline}, payload)
	if err != nil {
		return nil, err
	}
	_, err = c.frame.Send(c.w, kind, 0)
	return out.Bytes(), err
}

// ReadFrame reads one frame from b as a connection end does and decodes
// it: the sender's header fields and its payload, or the error an error
// reply carries.
func ReadFrame(b []byte) (from NodeID, deadline int64, payload any, replyErr, err error) {
	c := wire{r: bufio.NewReader(bytes.NewReader(b))}
	kind, body, _, err := c.frame.Read(c.r, 0)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	h, payload, err := c.decode(kind, body)
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
