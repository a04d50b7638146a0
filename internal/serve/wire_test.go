package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"testing"

	"semtree"
	"semtree/internal/triple"
)

// TestWireGolden pins the bytes of one frame of every type, length
// prefix included: the hex was recorded before the encoders became
// append-style and must not move without a protoVersion bump. The
// frames are appended one after another into one buffer, so an encoder
// that fills its length prefix at the wrong offset fails too, and each
// decodes back to the frame it was built from.
func TestWireGolden(t *testing.T) {
	q := triple.Triple{
		Subject:   triple.NewConcept("std", "OBSW001"),
		Predicate: triple.NewConcept("Fun", "block_cmd"),
		Object:    triple.NewConcept("CmdType", "start-up"),
	}
	golden := []struct {
		frame any
		hex   string
	}{
		{helloFrame{Version: protoVersion, Token: "tok"}, "0000000c010000000100000003746f6b"},
		{helloAckFrame{Version: protoVersion, Code: 65, Msg: "auth"}, "000000110200000001000000410000000461757468"},
		{
			searchFrame{ReqID: 7, Deadline: 1_700_000_000_000_000_000, Mode: 1, K: 5, ExactFactor: 2, Radius: 0.5, Query: q},
			"0000006d03000000000000000717979cfe362a000001000000000000000500000000000000023fe000000000000000000000" +
				"0003737464000000074f42535730303100000000000346756e00000009626c6f636b5f636d64000000000007436d64547970" +
				"650000000873746172742d7570",
		},
		{
			resultFrame{
				ReqID: 7,
				Stats: semtree.ExecStats{NodesVisited: 11, BucketsScanned: 3, DistanceEvals: 42, Partitions: 2,
					FabricMessages: 4, ProbeMisses: 1, Wall: 12345, Protocol: "seq"},
				Matches: []semtree.Match{
					{ID: 3, Dist: 0.25, Triple: q, Prov: triple.Provenance{Doc: "d", Section: "s", Seq: 1}},
					{ID: 9, Dist: 0.5, Triple: q, Prov: triple.Provenance{Doc: "doc", Seq: -2}},
				},
			},
			"000001280400000000000000070000000000000000000000000000000000000000000000000b000000000000000300000000" +
				"0000002a00000000000000020000000000000004000000000000000100000000000030390000000373657100000002000000" +
				"00000000033fd0000000000000000000000003737464000000074f42535730303100000000000346756e00000009626c6f63" +
				"6b5f636d64000000000007436d64547970650000000873746172742d75700000000164000000017300000000000000010000" +
				"0000000000093fe0000000000000000000000003737464000000074f42535730303100000000000346756e00000009626c6f" +
				"636b5f636d64000000000007436d64547970650000000873746172742d757000000003646f6300000000fffffffffffffffe",
		},
		{snapshotFrame{ReqID: 1}, "00000009050000000000000001"},
		{
			snapshotAckFrame{ReqID: 1, HasErr: true, Code: 67, Msg: "no", Detail: 5, Bytes: 4096},
			"000000240600000000000000010100000043000000026e6f00000000000000050000000000001000",
		},
		{
			leaseReportFrame{Tenant: "acme", FrontEnd: "fe0", DemandQPS: 12.5},
			"00000018070000000461636d65000000036665304029000000000000",
		},
		{
			leaseGrantFrame{Tenant: "acme", Capacity: 100, RefillPerSec: 25, TTLNanos: 1e9},
			"00000021080000000461636d6540590000000000004039000000000000000000003b9aca00",
		},
	}
	var all []byte
	for _, g := range golden {
		start := len(all)
		all = appendAny(t, all, g.frame)
		if got := hex.EncodeToString(all[start:]); got != g.hex {
			t.Fatalf("%T moved on the wire:\ngot  %s\nwant %s", g.frame, got, g.hex)
		}
		back, err := decodeFrame(all[start+frameHead:])
		if err != nil {
			t.Fatalf("%T: %v", g.frame, err)
		}
		if again := appendAny(t, nil, back); !bytes.Equal(again, all[start:]) {
			t.Fatalf("%T decodes to %+v, which re-encodes as %x", g.frame, back, again)
		}
	}
}

// appendAny appends frame with the encoder of its type.
func appendAny(t *testing.T, b []byte, frame any) []byte {
	switch f := frame.(type) {
	case helloFrame:
		return appendHello(b, f)
	case helloAckFrame:
		return appendHelloAck(b, f)
	case searchFrame:
		return appendSearch(b, f)
	case resultFrame:
		return appendResult(b, f)
	case snapshotFrame:
		return appendSnapshot(b, f)
	case snapshotAckFrame:
		return appendSnapshotAck(b, f)
	case leaseReportFrame:
		return appendLeaseReport(b, f)
	case leaseGrantFrame:
		return appendLeaseGrant(b, f)
	}
	t.Fatalf("no encoder for %T", frame)
	return nil
}

// TestMatchCountBoundedByBytesLeft: a result frame may claim exactly as
// many matches as its remaining bytes can hold at minMatchSize each. One
// more is rejected before Matches is sized from the count, so the
// rejection allocates about the payload's own copy, not the ~200 bytes
// per claimed match a sized slice would take.
func TestMatchCountBoundedByBytesLeft(t *testing.T) {
	const fits = 1000
	head := appendResult(nil, resultFrame{ReqID: 1})[frameHead:]
	head = head[:len(head)-4] // drop the zero count
	frame := func(count uint32) []byte {
		b := binary.BigEndian.AppendUint32(slices.Clone(head), count)
		return append(b, make([]byte, fits*minMatchSize)...)
	}
	f, err := decodeFrame(frame(fits))
	if err != nil || len(f.(resultFrame).Matches) != fits {
		t.Fatalf("%d all-zero matches in %d bytes: %v", fits, fits*minMatchSize, err)
	}
	hostile := frame(fits + 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeFrame(hostile)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("%d matches claimed in %d bytes: err = %v, want ErrProtocol", fits+1, fits*minMatchSize, err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(2*len(hostile)) {
		t.Fatalf("rejecting a %d-byte frame allocated %d bytes", len(hostile), grown)
	}
}

// respond answers every frame on conn without allocating: a hello with
// an accepting ack, anything else with reply, the request's ReqID
// copied in. It reads into one fixed buffer and writes pre-encoded
// bytes, so an allocation count taken around a Client.Search counts the
// client's alone.
func respond(conn net.Conn, reply []byte) {
	defer conn.Close()
	ack := appendHelloAck(nil, helloAckFrame{Version: protoVersion})
	reply = slices.Clone(reply)
	buf := make([]byte, maxFrameBuffer)
	for {
		if _, err := io.ReadFull(conn, buf[:frameHead]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(buf)
		if n < 9 || n > uint32(len(buf)) {
			return
		}
		if _, err := io.ReadFull(conn, buf[:n]); err != nil {
			return
		}
		out := reply
		if buf[0] == ftHello {
			out = ack
		} else {
			copy(reply[frameHead+1:], buf[1:9])
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// dialResponder dials a Client to a loopback responder that answers
// every search with the same ten-match result.
func dialResponder(tb testing.TB) *Client {
	tb.Helper()
	matches := make([]semtree.Match, 10)
	for i, q := range testQueries(len(matches)) {
		matches[i] = semtree.Match{ID: triple.ID(i), Dist: float64(i) / 10, Triple: q,
			Prov: triple.Provenance{Doc: fmt.Sprintf("doc%d", i), Section: "sec", Seq: i}}
	}
	reply := appendResult(nil, resultFrame{Stats: semtree.ExecStats{Partitions: 1, Protocol: "seq"}, Matches: matches})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go respond(conn, reply)
		}
	}()
	cl, err := Dial(context.Background(), lis.Addr().String(), "tok")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		cl.Close()
		lis.Close()
	})
	return cl
}

// TestClientSearchAllocs gates the client's cost of one warmed search:
// a reply decodes into one string and one match slice, the request and
// reply buffers are the connection's, and the call's slot, its wait on
// a cancellable context and its options cost nothing. A return to a
// copy per field or per frame, or to a registration per call, fails
// here. The benchmark's serve workload counts the same client path.
func TestClientSearchAllocs(t *testing.T) {
	cl := dialResponder(t)
	ctx := t.Context()
	q := testQueries(1)[0]
	search := func() {
		if res, err := cl.Search(ctx, q); err != nil || len(res.Matches) != 10 {
			t.Fatalf("search: %d matches, %v", len(res.Matches), err)
		}
	}
	search()
	got := testing.AllocsPerRun(200, search)
	t.Logf("%.1f allocs per warmed Client.Search", got)
	if got > 2 {
		t.Fatalf("%.0f allocs per warmed Client.Search, want at most 2", got)
	}
}

func BenchmarkClientSearch(b *testing.B) {
	cl := dialResponder(b)
	ctx := context.Background()
	q := testQueries(1)[0]
	b.ReportAllocs()
	for b.Loop() {
		if _, err := cl.Search(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientSearchParallel is BenchmarkClientSearch from
// GOMAXPROCS goroutines at once, all on the client's one connection.
func BenchmarkClientSearchParallel(b *testing.B) {
	cl := dialResponder(b)
	q := testQueries(1)[0]
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cl.Search(context.Background(), q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestReplyDoesNotAliasBuffer: a decoded reply owns its bytes. Two
// searches run back to back on the client's one connection, so the
// second reply is read into the buffer the first was read from; the
// first result's triples and provenance must be unchanged after it.
func TestReplyDoesNotAliasBuffer(t *testing.T) {
	idx := testIndex(t, 400)
	srv, err := NewServer(Config{Index: idx, Tenants: []TenantConfig{{Name: "t", Token: "tok"}}})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(t.Context(), startServer(t, srv), "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	qs := testQueries(2)
	first, err := cl.Search(t.Context(), qs[0], semtree.WithK(5))
	if err != nil || len(first.Matches) == 0 {
		t.Fatalf("first search: %d matches, %v", len(first.Matches), err)
	}
	before := fmt.Sprintf("%+v", first.Matches)
	second, err := cl.Search(t.Context(), qs[1], semtree.WithK(5))
	if err != nil {
		t.Fatalf("second search: %v", err)
	}
	if after := fmt.Sprintf("%+v", first.Matches); after != before {
		t.Fatalf("the second reply rewrote the first result:\nbefore %s\nafter  %s", before, after)
	}
	if fmt.Sprintf("%+v", second.Matches) == before {
		t.Fatal("both queries got the same answer; the test needs replies that differ")
	}
	if n := srv.Stats().Conns; n != 1 {
		t.Fatalf("%d connections, want both searches on one", n)
	}
}
