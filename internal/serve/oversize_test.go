package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"semtree"
	"semtree/internal/column"
	"semtree/internal/mux"
	"semtree/internal/triple"
)

// TestOversizeReplyAnswered: a range search over a 20k-triple index
// with a radius that takes every triple has an answer far over
// maxFrameSize. The server cannot send it, so it sends the error
// instead: the call returns ErrProtocol at once, under a context with
// no deadline, and the next search on the same client is answered on
// the same connection.
func TestOversizeReplyAnswered(t *testing.T) {
	idx := testIndex(t, 20_000)
	srv, err := NewServer(Config{Index: idx, Tenants: []TenantConfig{{Name: "t", Token: "tok"}}})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(t.Context(), startServer(t, srv), "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	q := testQueries(1)[0]
	done := make(chan error, 1)
	go func() {
		_, err := cl.Search(context.Background(), q, semtree.WithRadius(1e9))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("a reply over the frame cap: err = %v, want ErrProtocol", err)
		}
		if Retryable(err) {
			t.Fatalf("%v is retryable", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a reply over the frame cap left its call waiting")
	}
	if res, err := cl.Search(t.Context(), q, semtree.WithK(3)); err != nil || len(res.Matches) != 3 {
		t.Fatalf("the next search: %d matches, %v", len(res.Matches), err)
	}
	if n := srv.Stats().Conns; n != 1 {
		t.Fatalf("%d connections, want both searches on one", n)
	}
}

// TestOversizeRequestFailsOnlyItsCall: a query whose frame is over
// maxFrameSize is never written, so the connection stays in step. The
// call returns ErrProtocol without a retry, a search running beside it
// on the same Client is answered, and the server sees one connection.
func TestOversizeRequestFailsOnlyItsCall(t *testing.T) {
	srv, cl, ref := paritySetup(t)
	qs := testQueries(2)
	huge := qs[0]
	huge.Subject = triple.NewLiteral(strings.Repeat("x", 2<<20))
	want, wantErr := ref.With(semtree.WithK(5)).Search(t.Context(), qs[1])
	small := make(chan string, 1)
	go func() {
		got, err := cl.Search(t.Context(), qs[1], semtree.WithK(5))
		small <- answerDiff(want, wantErr, got, err)
	}()
	if _, err := cl.Search(t.Context(), huge, semtree.WithK(5)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("a 2 MiB query: err = %v, want ErrProtocol", err)
	}
	if d := <-small; d != "" {
		t.Fatalf("the search beside it: %s", d)
	}
	if got, err := cl.Search(t.Context(), qs[1], semtree.WithK(5)); answerDiff(want, wantErr, got, err) != "" {
		t.Fatalf("the search after it: %s", answerDiff(want, wantErr, got, err))
	}
	if n := srv.Stats().Conns; n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

// TestOversizeLengthBothEnds: a frame head claiming a body at the cap,
// followed by 16 bytes and the connection's end, fails with
// ErrProtocol at the server's pre-hello read and at the client's reply
// read alike, allocating about what arrived, not what was claimed. A
// head claiming a body over the cap fails before any of the body is
// read, though the whole body follows it.
func TestOversizeLengthBothEnds(t *testing.T) {
	hostile := func(ft uint8, claim uint64, sent int) []byte {
		return append(binary.AppendUvarint([]byte{ft}, claim), make([]byte, sent)...)
	}
	// allocated runs f and returns the bytes the process allocated
	// meanwhile.
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const bound = 32 << 10
	q := testQueries(1)[0]
	for _, tc := range []struct {
		claim uint64
		sent  int
	}{{maxFrameSize, 16}, {maxFrameSize + 16, maxFrameSize + 16}} {
		hello := hostile(ftHello, tc.claim, tc.sent)
		client, server := net.Pipe()
		go func() {
			_, _ = client.Write(hello)
			client.Close()
		}()
		var err error
		grown := allocated(func() {
			var in column.Frame
			err = acceptHello(server, bufio.NewReader(server), &in, &mux.Writer{Conn: server, Limit: maxFrameSize}, func(string) error { return nil })
		})
		server.Close()
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("a hello claiming %d bytes: err = %v, want ErrProtocol", tc.claim, err)
		}
		if grown > bound {
			t.Fatalf("a hello claiming %d bytes, %d sent, allocated %d bytes", tc.claim, tc.sent, grown)
		}

		cl, p := dialScripted(t)
		reply := hostile(ftResult, tc.claim, tc.sent)
		go func() {
			req := p.next()
			_, k := binary.Uvarint(reply[1:])
			binary.BigEndian.PutUint64(reply[1+k:], req.ReqID)
			_, _ = p.w.Conn.Write(reply)
			p.w.Conn.Close()
		}()
		grown = allocated(func() { _, err = cl.Search(t.Context(), q) })
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("a reply claiming %d bytes: err = %v, want ErrProtocol", tc.claim, err)
		}
		if grown > bound {
			t.Fatalf("a reply claiming %d bytes, %d sent, allocated %d bytes", tc.claim, tc.sent, grown)
		}
	}
}
