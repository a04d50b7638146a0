package serve

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"semtree"
	"semtree/internal/triple"
)

// FuzzServeFrame: the frame decoder must never panic on arbitrary
// bytes — the same posture as the snapshot fuzzers. Malformed payloads
// must surface as the typed ErrProtocol (so a hostile peer produces a
// clean typed close, not a crash), and every payload the decoder
// accepts must re-encode byte-identically — the decoder admits exactly
// the canonical wire form, nothing looser. A count is believed only as
// far as the bytes left back it, so no payload, accepted or rejected,
// allocates more than a small multiple of its own size.
func FuzzServeFrame(f *testing.F) {
	q := triple.Triple{
		Subject:   triple.NewConcept("std", "OBSW001"),
		Predicate: triple.NewConcept("Fun", "block_cmd"),
		Object:    triple.NewConcept("CmdType", "start-up"),
	}
	// A payload is a frame's type byte followed by its body.
	payload := func(frame any) []byte {
		ft, body := appendAny(f, nil, frame)
		return append([]byte{ft}, body...)
	}
	f.Add(payload(helloFrame{ReqID: 1, Version: protoVersion, Token: "tok"}))
	f.Add(payload(helloAckFrame{ReqID: 1, Version: protoVersion}))
	f.Add(payload(searchFrame{ReqID: 7, Deadline: 123, Mode: 1, K: 5, ExactFactor: 2, Radius: 0.5, Query: q}))
	f.Add(payload(resultFrame{ReqID: 7, Matches: []semtree.Match{{ID: 3, Dist: 0.25, Triple: q, Prov: triple.Provenance{Doc: "d", Section: "s", Seq: 1}}}}))
	f.Add(payload(resultFrame{ReqID: 9, HasErr: true, Code: 3, Msg: "quota", Detail: 0}))
	f.Add(payload(snapshotFrame{ReqID: 1}))
	f.Add(payload(snapshotAckFrame{ReqID: 1, Bytes: 4096}))
	f.Add(payload(leaseReportFrame{ReqID: 2, Tenant: "acme", FrontEnd: "fe0", DemandQPS: 12.5}))
	f.Add(payload(leaseGrantFrame{ReqID: 2, Tenant: "acme", Capacity: 100, RefillPerSec: 25, TTLNanos: 1e9}))
	f.Add([]byte{})
	f.Add([]byte{ftSearch})
	f.Add([]byte{255, 0, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 || len(payload) > maxFrameSize {
			return // no frame has no type byte, and the reader refuses a body over the cap
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frame, err := decodeFrame(payload[0], string(payload[1:]))
		runtime.ReadMemStats(&after)
		// One copy of the payload for its strings, at most one
		// semtree.Match per minMatchSize bytes, and an error value.
		if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(5*len(payload))+64<<10 {
			t.Fatalf("%d payload bytes allocated %d", len(payload), grown)
		}
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("malformed payload produced an untyped error: %v", err)
			}
			return
		}
		// Accepted payloads are canonical: re-encoding the decoded frame
		// reproduces the input bit for bit, its type byte included.
		ft, re := appendAny(t, nil, frame)
		if ft != payload[0] || !bytes.Equal(re, payload[1:]) {
			t.Fatalf("accepted payload is not canonical:\nin  %x\nout %02x%x", payload, ft, re)
		}
	})
}
