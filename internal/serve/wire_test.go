package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"semtree"
	"semtree/internal/column"
	"semtree/internal/triple"
)

// TestWireGolden pins the bytes of one frame of every type, head
// included: the hex may not move without a protoVersion bump (it was
// recorded when version 2 put the bodies under the fabric's frame). The
// frames are read back in order from one stream through one reader and
// buffer, as a connection reads them, and each decodes to the frame it
// was built from.
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
		{helloFrame{ReqID: 4294967297, Version: protoVersion, Token: "tok"}, "011300000001000000010000000200000003746f6b"},
		{helloAckFrame{ReqID: 4294967297, Version: protoVersion, Code: 65, Msg: "auth"}, "0218000000010000000100000002000000410000000461757468"},
		{
			searchFrame{ReqID: 7, Deadline: 1_700_000_000_000_000_000, Mode: 1, K: 5, ExactFactor: 2, Radius: 0.5, Query: q},
			"036c000000000000000717979cfe362a000001000000000000000500000000000000023fe00000000000000000000000037374" +
				"64000000074f42535730303100000000000346756e00000009626c6f636b5f636d64000000000007436d6454797065000000" +
				"0873746172742d7570",
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
			"04a70200000000000000070000000000000000000000000000000000000000000000000b00000000000000030000000000" +
				"00002a0000000000000002000000000000000400000000000000010000000000003039000000037365710000000200000000" +
				"000000033fd0000000000000000000000003737464000000074f42535730303100000000000346756e00000009626c6f636b" +
				"5f636d64000000000007436d64547970650000000873746172742d757000000001640000000173000000000000000100000000" +
				"000000093fe0000000000000000000000003737464000000074f42535730303100000000000346756e00000009626c6f636b" +
				"5f636d64000000000007436d64547970650000000873746172742d757000000003646f6300000000fffffffffffffffe",
		},
		{snapshotFrame{ReqID: 1}, "05080000000000000001"},
		{
			snapshotAckFrame{ReqID: 1, HasErr: true, Code: 67, Msg: "no", Detail: 5, Bytes: 4096},
			"062300000000000000010100000043000000026e6f00000000000000050000000000001000",
		},
		{
			leaseReportFrame{ReqID: 3, Tenant: "acme", FrontEnd: "fe0", DemandQPS: 12.5},
			"071f00000000000000030000000461636d65000000036665304029000000000000",
		},
		{
			leaseGrantFrame{ReqID: 3, Tenant: "acme", Capacity: 100, RefillPerSec: 25, TTLNanos: 1e9},
			"082800000000000000030000000461636d6540590000000000004039000000000000000000003b9aca00",
		},
	}
	var all []byte
	for _, g := range golden {
		frame := frameBytes(t, g.frame)
		if got := hex.EncodeToString(frame); got != g.hex {
			t.Errorf("%T moved on the wire:\ngot  %s\nwant %s", g.frame, got, g.hex)
		}
		all = append(all, frame...)
	}
	br := bufio.NewReader(bytes.NewReader(all))
	var in column.Frame
	for _, g := range golden {
		ft, body, _, err := in.Read(br, maxFrameSize)
		if err != nil {
			t.Fatalf("%T: %v", g.frame, err)
		}
		back, err := decodeFrame(ft, string(body))
		if err != nil {
			t.Fatalf("%T: %v", g.frame, err)
		}
		if !reflect.DeepEqual(back, g.frame) {
			t.Fatalf("%T decodes to %+v, want %+v", g.frame, back, g.frame)
		}
	}
}

// appendAny appends the body of frame with the encoder of its type and
// returns the type.
func appendAny(tb testing.TB, b []byte, frame any) (uint8, []byte) {
	switch f := frame.(type) {
	case helloFrame:
		return ftHello, appendHello(b, f)
	case helloAckFrame:
		return ftHelloAck, appendHelloAck(b, f)
	case searchFrame:
		return ftSearch, appendSearch(b, f)
	case resultFrame:
		return ftResult, appendResult(b, f)
	case snapshotFrame:
		return ftSnapshot, appendSnapshot(b, f)
	case snapshotAckFrame:
		return ftSnapshotAck, appendSnapshotAck(b, f)
	case leaseReportFrame:
		return ftLeaseReport, appendLeaseReport(b, f)
	case leaseGrantFrame:
		return ftLeaseGrant, appendLeaseGrant(b, f)
	}
	tb.Fatalf("no encoder for %T", frame)
	return 0, nil
}

// frameBytes returns frame as a connection writes it: its type, its
// body's length and its body.
func frameBytes(tb testing.TB, frame any) []byte {
	var f column.Frame
	b := f.Body()
	var ft uint8
	ft, *b = appendAny(tb, *b, frame)
	var out bytes.Buffer
	if _, err := f.Send(&out, ft, maxFrameSize); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// decodeFrame decodes a body of type ft with the decoder of its type.
// Unknown types and malformed bodies return an error wrapping
// ErrProtocol; decodeFrame never panics — FuzzServeFrame holds it to
// that.
func decodeFrame(ft uint8, body string) (any, error) {
	switch ft {
	case ftHello:
		return boxed(decodeHello(body))
	case ftHelloAck:
		return boxed(decodeHelloAck(body))
	case ftSearch:
		return boxed(decodeSearch(body))
	case ftResult:
		return boxed(decodeResult(body))
	case ftSnapshot:
		return boxed(decodeSnapshot(body))
	case ftSnapshotAck:
		return boxed(decodeSnapshotAck(body))
	case ftLeaseReport:
		return boxed(decodeLeaseReport(body))
	case ftLeaseGrant:
		return boxed(decodeLeaseGrant(body))
	}
	return nil, fmt.Errorf("%w: unknown frame type %d", ErrProtocol, ft)
}

// boxed returns a typed decoder's frame as decodeFrame's result, or
// only its error.
func boxed[F any](f F, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// TestMatchCountBoundedByBytesLeft: a result frame may claim exactly as
// many matches as its remaining bytes can hold at minMatchSize each. One
// more is rejected before Matches is sized from the count, so the
// rejection allocates about the payload's own copy, not the ~200 bytes
// per claimed match a sized slice would take.
func TestMatchCountBoundedByBytesLeft(t *testing.T) {
	const fits = 1000
	head := appendResult(nil, resultFrame{ReqID: 1})
	head = head[:len(head)-4] // drop the zero count
	body := func(count uint32) string {
		b := binary.BigEndian.AppendUint32(slices.Clone(head), count)
		return string(append(b, make([]byte, fits*minMatchSize)...))
	}
	f, err := decodeFrame(ftResult, body(fits))
	if err != nil || len(f.(resultFrame).Matches) != fits {
		t.Fatalf("%d all-zero matches in %d bytes: %v", fits, fits*minMatchSize, err)
	}
	hostile := body(fits + 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeFrame(ftResult, hostile)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("%d matches claimed in %d bytes: err = %v, want ErrProtocol", fits+1, fits*minMatchSize, err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(2*len(hostile)) {
		t.Fatalf("rejecting a %d-byte frame allocated %d bytes", len(hostile), grown)
	}
}

// respond answers every frame on conn without allocating once warm: a
// hello with ack, anything else with reply — both whole frames — the
// request's ReqID copied in. It reads through one reused buffer and
// writes pre-encoded bytes, so an allocation count taken around a
// Client.Search counts the client's alone.
func respond(conn net.Conn, ack, reply []byte) {
	defer conn.Close()
	ack, reply = slices.Clone(ack), slices.Clone(reply)
	br := bufio.NewReader(conn)
	var in column.Frame
	for {
		ft, body, _, err := in.Read(br, maxFrameSize)
		if err != nil || len(body) < 8 {
			return
		}
		out := reply
		if ft == ftHello {
			out = ack
		}
		_, k := binary.Uvarint(out[1:])
		copy(out[1+k:], body[:8])
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
	ack := frameBytes(tb, helloAckFrame{Version: protoVersion})
	reply := frameBytes(tb, resultFrame{Stats: semtree.ExecStats{Partitions: 1, Protocol: "seq"}, Matches: matches})
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
			go respond(conn, ack, reply)
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
