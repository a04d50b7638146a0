package serve

import (
	"bytes"
	"encoding/binary"
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
	payload := func(frame []byte) []byte { return frame[frameHead:] }
	f.Add(payload(appendHello(nil, helloFrame{Version: protoVersion, Token: "tok"})))
	f.Add(payload(appendHelloAck(nil, helloAckFrame{Version: protoVersion})))
	f.Add(payload(appendSearch(nil, searchFrame{ReqID: 7, Deadline: 123, Mode: 1, K: 5, ExactFactor: 2, Radius: 0.5, Query: q})))
	f.Add(payload(appendResult(nil, resultFrame{ReqID: 7, Matches: []semtree.Match{{ID: 3, Dist: 0.25, Triple: q, Prov: triple.Provenance{Doc: "d", Section: "s", Seq: 1}}}})))
	f.Add(payload(appendResult(nil, resultFrame{ReqID: 9, HasErr: true, Code: 3, Msg: "quota", Detail: 0})))
	f.Add(payload(appendSnapshot(nil, snapshotFrame{ReqID: 1})))
	f.Add(payload(appendSnapshotAck(nil, snapshotAckFrame{ReqID: 1, Bytes: 4096})))
	f.Add(payload(appendLeaseReport(nil, leaseReportFrame{Tenant: "acme", FrontEnd: "fe0", DemandQPS: 12.5})))
	f.Add(payload(appendLeaseGrant(nil, leaseGrantFrame{Tenant: "acme", Capacity: 100, RefillPerSec: 25, TTLNanos: 1e9})))
	f.Add([]byte{})
	f.Add([]byte{ftSearch})
	f.Add([]byte{255, 0, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > maxFrameSize {
			return // readFrame rejects these before decodeFrame runs
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frame, err := decodeFrame(payload)
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
		// reproduces the input bit for bit, under a length prefix that
		// counts it.
		re := appendAny(t, nil, frame)
		if binary.BigEndian.Uint32(re) != uint32(len(payload)) || !bytes.Equal(re[frameHead:], payload) {
			t.Fatalf("accepted payload is not canonical:\nin  %x\nout %x", payload, re)
		}
	})
}
