package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"semtree"
	"semtree/internal/column"
	"semtree/internal/synth"
	"semtree/internal/triple"
)

// testIndex builds a small deterministic multi-partition index over
// synthetic requirement triples.
func testIndex(t testing.TB, n int) *semtree.Index {
	t.Helper()
	gen := synth.New(synth.Config{Seed: 42, Actors: 200}, nil)
	store := triple.NewStore()
	for i, tr := range gen.Triples(n) {
		store.Add(tr, triple.Provenance{Doc: "doc", Section: "sec", Seq: i})
	}
	idx, err := semtree.Build(store, semtree.Options{
		Seed:              42,
		PartitionCapacity: 64,
		MaxPartitions:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	return idx
}

// testQueries returns deterministic query triples disjoint from the
// indexed workload.
func testQueries(n int) []triple.Triple {
	gen := synth.New(synth.Config{Seed: 43, Actors: 200}, nil)
	qs := make([]triple.Triple, n)
	for i := range qs {
		qs[i] = gen.RandomTriple()
	}
	return qs
}

// startServer runs srv on a loopback listener and returns its address.
// The cleanup drains the server (bounded) so tests never leak its
// goroutines.
func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	return startServerAt(t, srv, "127.0.0.1:0")
}

// startServerAt is startServer on a given listen address.
func startServerAt(t *testing.T, srv *Server, addr string) string {
	t.Helper()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, lis)
	}()
	t.Cleanup(func() {
		dctx, dcancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
		defer dcancel()
		_ = srv.Drain(dctx)
		cancel()
		<-done
	})
	return lis.Addr().String()
}

// paritySetup serves a seeded 600-triple index to one tenant on the
// sequential protocol and returns the server, a client dialled to it,
// and the in-process reference: a searcher on the same protocol, so the
// deterministic stats fields agree exactly.
func paritySetup(t *testing.T) (*Server, *Client, *semtree.Searcher) {
	t.Helper()
	idx := testIndex(t, 600)
	sequential := semtree.WithProtocol(semtree.ProtocolSequential)
	srv, err := NewServer(Config{
		Index:   idx,
		Tenants: []TenantConfig{{Name: "parity", Token: "parity-token", Options: []semtree.SearchOption{sequential}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(t.Context(), startServer(t, srv), "parity-token")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl, idx.Searcher(sequential)
}

// parityShapes are the query shapes the parity tests ask in.
var parityShapes = []struct {
	name string
	opts []semtree.SearchOption
}{
	{"knn", []semtree.SearchOption{semtree.WithK(5)}},
	{"knn-exact", []semtree.SearchOption{semtree.WithK(3), semtree.WithExactFactor(4)}},
	{"range", []semtree.SearchOption{semtree.WithMode(semtree.ModeRange), semtree.WithRadius(0.35)}},
	{"range-truncated", []semtree.SearchOption{semtree.WithRadius(0.5), semtree.WithK(4)}},
	{"knn-of-nothing", []semtree.SearchOption{semtree.WithK(0)}},
}

// answerDiff describes how a wire answer differs from the in-process
// one, or returns "" when it does not: matches (IDs, triples,
// provenance, distances), ExecStats including the protocol choice (only
// the measured wall time may differ), and sentinel errors under
// errors.Is.
func answerDiff(want semtree.Result, wantErr error, got semtree.Result, gotErr error) string {
	if (wantErr == nil) != (gotErr == nil) {
		return fmt.Sprintf("err mismatch: in-process %v, wire %v", wantErr, gotErr)
	}
	if wantErr != nil && !errors.Is(gotErr, wantErr) {
		return fmt.Sprintf("wire error %v does not match in-process sentinel %v", gotErr, wantErr)
	}
	want.Stats.Wall, got.Stats.Wall = 0, 0
	if !reflect.DeepEqual(want.Matches, got.Matches) {
		return fmt.Sprintf("matches diverge:\nin-process %+v\nwire       %+v", want.Matches, got.Matches)
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		return fmt.Sprintf("stats diverge:\nin-process %+v\nwire       %+v", want.Stats, got.Stats)
	}
	return ""
}

// TestWireParity is the end-to-end acceptance gate: for a fixed seeded
// tree, the answers a serve.Client gets over TCP must be byte-identical
// to the in-process Searcher's (answerDiff).
func TestWireParity(t *testing.T) {
	_, cl, ref := paritySetup(t)
	for qi, q := range testQueries(6) {
		for _, shape := range parityShapes {
			want, wantErr := ref.With(shape.opts...).Search(t.Context(), q)
			got, gotErr := cl.Search(t.Context(), q, shape.opts...)
			if d := answerDiff(want, wantErr, got, gotErr); d != "" {
				t.Fatalf("q%d %s: %s", qi, shape.name, d)
			}
		}
	}
}

// TestWireDeadlinePropagation: a context deadline must cross the wire
// and come back as the context sentinel, matching the in-process error
// contract under errors.Is.
func TestWireDeadlinePropagation(t *testing.T) {
	idx := testIndex(t, 400)
	srv, err := NewServer(Config{Index: idx, Tenants: []TenantConfig{{Name: "t", Token: "tok"}}})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	cl, err := Dial(t.Context(), addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithDeadline(t.Context(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = cl.Search(ctx, testQueries(1)[0], semtree.WithK(3))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestAuthAndTenantIsolation: a wrong token is refused at dial with the
// typed ErrAuth; a zero-quota tenant is rejected over the wire with
// ErrQuotaExhausted (decoding to the same sentinel) while an open
// tenant on the same server keeps answering, and the starved tenant's
// rejections spend zero fabric messages (metered counters stay zero).
// Runs under -race in the CI sweep alongside everything else.
func TestAuthAndTenantIsolation(t *testing.T) {
	idx := testIndex(t, 400)
	srv, err := NewServer(Config{
		Index: idx,
		Tenants: []TenantConfig{
			{Name: "open", Token: "open-tok"},
			{Name: "starved", Token: "starved-tok",
				Options: []semtree.SearchOption{semtree.WithQuota(0, 0)}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	if _, err := Dial(t.Context(), addr, "wrong-token"); !errors.Is(err, ErrAuth) {
		t.Fatalf("bad token: err = %v, want ErrAuth", err)
	}

	open, err := Dial(t.Context(), addr, "open-tok")
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	starved, err := Dial(t.Context(), addr, "starved-tok")
	if err != nil {
		t.Fatal(err)
	}
	defer starved.Close()

	qs := testQueries(8)
	var wg sync.WaitGroup
	errsOpen := make([]error, len(qs))
	errsStarved := make([]error, len(qs))
	for i, q := range qs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, errsOpen[i] = open.Search(t.Context(), q, semtree.WithK(3))
		}()
		go func() {
			defer wg.Done()
			_, errsStarved[i] = starved.Search(t.Context(), q, semtree.WithK(3))
		}()
	}
	wg.Wait()
	for i := range qs {
		if errsOpen[i] != nil {
			t.Fatalf("open tenant query %d failed: %v", i, errsOpen[i])
		}
		if !errors.Is(errsStarved[i], semtree.ErrQuotaExhausted) {
			t.Fatalf("starved tenant query %d: err = %v, want ErrQuotaExhausted", i, errsStarved[i])
		}
	}
	st, ok := srv.TenantStats("starved")
	if !ok {
		t.Fatal("no stats for tenant starved")
	}
	if st.Admitted != 0 || st.RejectedQuota != int64(len(qs)) || st.MeteredFabricMessages != 0 {
		t.Fatalf("starved tenant stats polluted: %+v", st)
	}
}

// TestGracefulDrain: with queries in flight, Drain must deliver every
// admitted query's answer (zero dropped), refuse late requests with the
// typed retryable ErrDraining, refuse new connections, and leak no
// goroutines.
func TestGracefulDrain(t *testing.T) {
	idx := testIndex(t, 600)
	before := runtime.NumGoroutine()
	srv, err := NewServer(Config{Index: idx, Tenants: []TenantConfig{{Name: "t", Token: "tok"}}})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = srv.Serve(ctx, lis)
	}()
	addr := lis.Addr().String()

	// One client (and so one established connection) per request: every
	// request is on a live, authenticated connection before the drain
	// starts, which is what makes the zero-dropped contract assertable —
	// a request still dialing when the listener closes was never the
	// server's to lose.
	const n = 32
	clients := make([]*Client, n)
	for i := range clients {
		cl, err := Dial(t.Context(), addr, "tok")
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
		defer cl.Close()
	}

	qs := testQueries(n)
	results := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, results[i] = clients[i].Search(t.Context(), qs[i], semtree.WithK(5), semtree.WithExactFactor(8))
		}()
	}
	dctx, dcancel := context.WithTimeout(t.Context(), 10*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	// Zero dropped: every request either completed with its answer or
	// was refused with the typed draining sentinel — never a transport
	// error, never silence.
	var answered, refused int
	for i, err := range results {
		switch {
		case err == nil:
			answered++
		case errors.Is(err, ErrDraining):
			refused++
		default:
			t.Fatalf("query %d dropped with untyped error: %v", i, err)
		}
	}
	t.Logf("drain: %d answered, %d refused (typed)", answered, refused)

	// The drained server refuses new connections.
	if _, err := Dial(t.Context(), addr, "tok"); err == nil {
		t.Fatal("dial after drain succeeded")
	}
	for _, cl := range clients {
		cl.Close()
	}
	cancel()
	<-serveDone

	// No goroutine may outlive the drain (the accept loop, connection
	// handlers, request handlers and the lease loop all exit).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked across drain: %d running, started with %d", runtime.NumGoroutine(), before)
}

// TestSaveConcurrentWithServeQueries is the serving-tier extension of
// TestSaveConcurrentWithInsert: the admin snapshot endpoint triggers
// Save on the serving index while live network queries and concurrent
// inserts hammer it. Every snapshot Save acknowledges must be loadable
// and internally consistent (store ↔ tree pairing),
// and an un-privileged tenant must be refused with ErrNotAdmin.
func TestSaveConcurrentWithServeQueries(t *testing.T) {
	idx := testIndex(t, 500)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "live.semtree")
	srv, err := NewServer(Config{
		Index:        idx,
		SnapshotPath: snapPath,
		Tenants: []TenantConfig{
			{Name: "admin", Token: "admin-tok", Admin: true},
			{Name: "plain", Token: "plain-tok"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	admin, err := Dial(t.Context(), addr, "admin-tok")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	plain, err := Dial(t.Context(), addr, "plain-tok")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	if _, err := plain.Snapshot(t.Context()); !errors.Is(err, ErrNotAdmin) {
		t.Fatalf("un-privileged snapshot: err = %v, want ErrNotAdmin", err)
	}

	// Race: network queries, direct inserts and wire-triggered Saves,
	// all concurrent.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	qs := testQueries(16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := plain.Search(t.Context(), qs[i%len(qs)], semtree.WithK(3)); err != nil {
				t.Errorf("query under snapshot: %v", err)
				return
			}
		}
	}()
	gen := synth.New(synth.Config{Seed: 99, Actors: 200}, nil)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := idx.Insert(gen.RandomTriple(), triple.Provenance{Doc: "live", Seq: i}); err != nil {
				t.Errorf("insert under snapshot: %v", err)
				return
			}
		}
	}()
	var lastBytes uint64
	for i, refused := 0, 0; i < 5; {
		n, err := admin.Snapshot(t.Context())
		if err != nil {
			// Insert extends the store and the tree in two steps, so a
			// Save that lands between them reports the mutation cleanly
			// (its contract, see TestSaveConcurrentWithInsert) and is
			// retried; the inserter is finite, so refusals are too.
			if refused++; refused <= 200 && bytes.Contains([]byte(err.Error()), []byte("mutated during Save")) {
				continue
			}
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if n == 0 {
			t.Fatalf("snapshot %d: zero bytes written", i)
		}
		lastBytes = n
		i++
	}
	close(stop)
	wg.Wait()

	if srv.Stats().Snapshots != 5 {
		t.Fatalf("snapshot counter = %d, want 5", srv.Stats().Snapshots)
	}
	// The last snapshot written must load and answer.
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil || uint64(fi.Size()) != lastBytes {
		t.Fatalf("snapshot size = %v (err %v), ack said %d", fi.Size(), err, lastBytes)
	}
	loaded, err := semtree.Load(f, semtree.Options{})
	if err != nil {
		t.Fatalf("loading the live snapshot: %v", err)
	}
	defer loaded.Close()
	res, err := loaded.Searcher(semtree.WithK(3)).Search(t.Context(), qs[0])
	if err != nil || len(res.Matches) == 0 {
		t.Fatalf("loaded snapshot query: %v (%d matches)", err, len(res.Matches))
	}
}

// TestAllocatorSplit pins the allocator's share arithmetic with an
// injected clock: equal split without demand, demand-weighted split
// with it, shares always summing to the fleet-wide rate, and a dead
// front-end's share flowing back after the TTL.
func TestAllocatorSplit(t *testing.T) {
	clock := time.Unix(5000, 0)
	a := NewAllocator(AllocatorConfig{
		TTL:     2 * time.Second,
		Tenants: map[string]semtree.QuotaConfig{"acme": {Capacity: 1000, RefillPerSec: 100}},
	})
	a.now = func() time.Time { return clock }

	// Unmanaged tenant: TTL 0 ("keep your local config").
	if g := a.grant(leaseReportFrame{Tenant: "other", FrontEnd: "fe1"}); g.TTLNanos != 0 {
		t.Fatalf("unmanaged tenant got a lease: %+v", g)
	}

	// Single front-end, no demand: the full fleet rate.
	g := a.grant(leaseReportFrame{Tenant: "acme", FrontEnd: "fe1"})
	if g.Capacity != 1000 || g.RefillPerSec != 100 {
		t.Fatalf("single front-end grant = %+v, want the full fleet rate", g)
	}

	// Two front-ends, no demand: equal split, summing to the fleet.
	g2 := a.grant(leaseReportFrame{Tenant: "acme", FrontEnd: "fe2"})
	if g2.RefillPerSec != 50 {
		t.Fatalf("second front-end equal split = %+v, want refill 50", g2)
	}

	// Demand-weighted: 300 qps vs 100 qps → 75%/25% of the refill. The
	// split converges one report round after demand shifts (the first
	// report lands before the peer's demand is known), so report both,
	// then read the settled shares.
	a.grant(leaseReportFrame{Tenant: "acme", FrontEnd: "fe1", DemandQPS: 300})
	g2 = a.grant(leaseReportFrame{Tenant: "acme", FrontEnd: "fe2", DemandQPS: 100})
	g1 := a.grant(leaseReportFrame{Tenant: "acme", FrontEnd: "fe1", DemandQPS: 300})
	if g1.RefillPerSec != 75 || g2.RefillPerSec != 25 {
		t.Fatalf("demand split = %v + %v, want 75 + 25", g1.RefillPerSec, g2.RefillPerSec)
	}
	if sum := g1.RefillPerSec + g2.RefillPerSec; sum != 100 {
		t.Fatalf("shares sum to %v, want the fleet-wide 100", sum)
	}

	// fe1 dies; past the TTL its share returns to fe2.
	clock = clock.Add(3 * time.Second)
	g2 = a.grant(leaseReportFrame{Tenant: "acme", FrontEnd: "fe2", DemandQPS: 100})
	if g2.Capacity != 1000 || g2.RefillPerSec != 100 {
		t.Fatalf("survivor's grant after TTL expiry = %+v, want the full fleet rate", g2)
	}
}

// TestFleetQuotaConvergence is the end-to-end distributed-quota
// contract: two front-ends over one index, one allocator, one quota'd
// tenant. Before any lease each front-end independently grants the full
// fleet rate (2× total); once the lease loops run, the per-front-end
// buckets must converge so the capacities sum to the fleet-wide
// configuration, not a multiple of it.
func TestFleetQuotaConvergence(t *testing.T) {
	idx := testIndex(t, 400)
	const fleetCap, fleetRefill = 50000.0, 5000.0
	tenants := func() []TenantConfig {
		return []TenantConfig{{
			Name:  "acme",
			Token: "tok",
			Options: []semtree.SearchOption{
				semtree.WithQuota(fleetCap, fleetRefill),
			},
		}}
	}

	alloc := NewAllocator(AllocatorConfig{
		Token:   "fleet-secret",
		TTL:     time.Second,
		Tenants: map[string]semtree.QuotaConfig{"acme": {Capacity: fleetCap, RefillPerSec: fleetRefill}},
	})
	alis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	allocDone := make(chan struct{})
	actx, acancel := context.WithCancel(t.Context())
	go func() {
		defer close(allocDone)
		_ = alloc.Serve(actx, alis)
	}()
	t.Cleanup(func() { acancel(); <-allocDone })

	servers := make([]*Server, 2)
	for i := range servers {
		srv, err := NewServer(Config{
			Index:          idx,
			Tenants:        tenants(),
			FrontEndID:     fmt.Sprintf("fe%d", i),
			AllocatorAddr:  alis.Addr().String(),
			AllocatorToken: "fleet-secret",
			LeaseInterval:  20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		startServer(t, srv)
	}

	// Wait (bounded) for both lease loops to have applied a split
	// grant: each front-end's capacity drops to half the fleet's.
	deadline := time.Now().Add(5 * time.Second)
	for {
		caps := make([]float64, 2)
		for i, srv := range servers {
			st, ok := srv.TenantStats("acme")
			if !ok || !st.QuotaEnabled {
				t.Fatal("tenant acme has no quota snapshot")
			}
			caps[i] = st.QuotaCapacity
		}
		if caps[0]+caps[1] <= fleetCap*1.01 && caps[0] > 0 && caps[1] > 0 {
			t.Logf("converged: per-front-end capacities %v sum to fleet %v", caps, fleetCap)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet capacities never converged: %v (fleet-wide %v)", caps, fleetCap)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHelloVersionMismatch: a hello framed as this version frames it
// but carrying a future protocol version is refused with the typed
// ErrVersion, not a hang or a guess.
func TestHelloVersionMismatch(t *testing.T) {
	idx := testIndex(t, 200)
	srv, err := NewServer(Config{Index: idx, Tenants: []TenantConfig{{Name: "t", Token: "tok"}}})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frameBytes(t, helloFrame{ReqID: 1, Version: protoVersion + 9, Token: "tok"})); err != nil {
		t.Fatal(err)
	}
	var in column.Frame
	ft, body, _, err := in.Read(bufio.NewReader(conn), maxFrameSize)
	if err != nil || ft != ftHelloAck {
		t.Fatalf("frame type %d, %v: want a hello ack", ft, err)
	}
	ack, err := decodeHelloAck(string(body))
	if err != nil {
		t.Fatal(err)
	}
	if dec := semtree.DecodeError(ack.Code, ack.Msg, 0); !errors.Is(dec, ErrVersion) {
		t.Fatalf("version mismatch decoded to %v, want ErrVersion", dec)
	}
}

// TestClientSurvivesServerRestart: a restart kills the connection every
// call of a client shares. The first transport failure must retire it,
// so the retried searches dial the new server — once, for all of them —
// instead of trying the corpse again.
func TestClientSurvivesServerRestart(t *testing.T) {
	idx := testIndex(t, 200)
	newServer := func() *Server {
		srv, err := NewServer(Config{Index: idx, Tenants: []TenantConfig{{Name: "t", Token: "tok"}}})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	old := newServer()
	addr := startServerAt(t, old, "127.0.0.1:0")
	cl, err := Dial(t.Context(), addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	q := testQueries(1)[0]
	if _, err := cl.Search(t.Context(), q, semtree.WithK(3)); err != nil {
		t.Fatal(err)
	}
	if err := old.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	fresh := newServer()
	startServerAt(t, fresh, addr)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cl.Search(t.Context(), q, semtree.WithK(3))
			if err == nil && len(res.Matches) != 3 {
				err = fmt.Errorf("%d matches, want 3", len(res.Matches))
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("search %d after the restart: %v", i, err)
		}
	}
	if n := old.Stats().Conns; n != 1 {
		t.Fatalf("the first server saw %d connections, want 1", n)
	}
	if n := fresh.Stats().Conns; n != 1 {
		t.Fatalf("the restarted server saw %d connections, want the one redial every search shares", n)
	}
}

// TestAllocatorHelloUnderFrozenClock: the allocator's injected clock
// steps lease TTLs, not socket deadlines. With the clock frozen in 1970
// a lease dial must still get through the hello and be granted its
// share (arming the hello deadline from that clock timed every lease
// hello out on arrival).
func TestAllocatorHelloUnderFrozenClock(t *testing.T) {
	alloc := NewAllocator(AllocatorConfig{
		Token:   "fleet-secret",
		Tenants: map[string]semtree.QuotaConfig{"acme": {Capacity: 1000, RefillPerSec: 100}},
	})
	alloc.now = func() time.Time { return time.Unix(5000, 0) }
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	ctx, cancel := context.WithCancel(t.Context())
	go func() {
		defer close(done)
		_ = alloc.Serve(ctx, lis)
	}()
	t.Cleanup(func() { cancel(); <-done })

	cl, err := Dial(ctx, lis.Addr().String(), "fleet-secret")
	if err != nil {
		t.Fatalf("lease hello under a frozen allocator clock: %v", err)
	}
	defer cl.Close()
	g, err := cl.lease(ctx, leaseReportFrame{Tenant: "acme", FrontEnd: "fe1"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Capacity != 1000 || g.RefillPerSec != 100 || g.TTLNanos <= 0 {
		t.Fatalf("grant = %+v, want the full fleet rate", g)
	}
	if _, err := Dial(ctx, lis.Addr().String(), "wrong"); !errors.Is(err, ErrAuth) {
		t.Fatalf("bad lease token: err = %v, want ErrAuth", err)
	}
}

// TestSnapshotLeavesNoTemp: a snapshot whose rename fails (its target
// is a directory) reports the error over the wire and leaves no temp
// file behind; a successful one leaves only the target, which Load
// opens, at the byte size the ack reported.
func TestSnapshotLeavesNoTemp(t *testing.T) {
	idx := testIndex(t, 200)
	dir := t.TempDir()
	snapshot := func(path string) (uint64, error) {
		srv, err := NewServer(Config{
			Index:        idx,
			SnapshotPath: path,
			Tenants:      []TenantConfig{{Name: "admin", Token: "tok", Admin: true}},
		})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Dial(t.Context(), startServer(t, srv), "tok")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		return cl.Snapshot(t.Context())
	}
	leftovers := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, ".semtree-snap-*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}

	taken := filepath.Join(dir, "taken")
	if err := os.Mkdir(taken, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot(taken); err == nil {
		t.Fatal("a snapshot onto a directory succeeded")
	}
	if names := leftovers(); len(names) != 0 {
		t.Fatalf("a failed snapshot left %v behind", names)
	}

	path := filepath.Join(dir, "live.semtree")
	n, err := snapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if names := leftovers(); len(names) != 0 {
		t.Fatalf("a snapshot left %v behind", names)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(fi.Size()) != n {
		t.Fatalf("snapshot is %d bytes, the ack said %d", fi.Size(), n)
	}
	loaded, err := semtree.Load(f, semtree.Options{})
	if err != nil {
		t.Fatalf("loading the snapshot: %v", err)
	}
	loaded.Close()
}

// TestSnapshotTempBesideTarget: the snapshot's temp file must be
// created in the target's own directory — for a target in the root
// directory too — or the final rename can cross filesystems.
func TestSnapshotTempBesideTarget(t *testing.T) {
	for _, tc := range []struct{ path, dir string }{
		{"/x.snap", "/"},
		{"x.snap", "."},
		{"a/b/x.snap", "a/b"},
	} {
		var name string
		f, err := snapshotTemp(tc.path)
		if err == nil {
			name = f.Name()
			f.Close()
			os.Remove(name)
		} else {
			// The directory is missing or not writable here; the error
			// still names the file the call tried to create.
			var pe *os.PathError
			if !errors.As(err, &pe) {
				t.Fatalf("%s: %v", tc.path, err)
			}
			name = pe.Path
		}
		if got := filepath.Dir(name); got != tc.dir {
			t.Errorf("%s: temp file %q is in %q, want %q", tc.path, name, got, tc.dir)
		}
	}
}

// TestSnapshotTornWrite: a save torn after n bytes, for every n short
// of a whole 20-triple snapshot, fails and leaves the old file at the
// target byte for byte and no temp file beside it; only the whole
// snapshot replaces the old file.
func TestSnapshotTornWrite(t *testing.T) {
	idx := testIndex(t, 20)
	var whole bytes.Buffer
	if err := semtree.Save(&whole, idx); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "live.semtree")
	old := []byte("the previous snapshot")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= whole.Len(); n++ {
		size, err := snapshotTo(path, func(w io.Writer) error {
			return semtree.Save(&tornWriter{w: w, left: n}, idx)
		})
		want := old
		if n == whole.Len() {
			if err != nil || size != uint64(n) {
				t.Fatalf("whole snapshot: %d bytes, %v", size, err)
			}
			want = whole.Bytes()
		} else if err == nil {
			t.Fatalf("a save torn after %d of %d bytes succeeded", n, whole.Len())
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("torn after %d of %d bytes: the target holds %d bytes (%v), want %d", n, whole.Len(), len(got), err, len(want))
		}
		if names, _ := filepath.Glob(filepath.Join(dir, ".semtree-snap-*")); len(names) != 0 {
			t.Fatalf("torn after %d of %d bytes: %v left behind", n, whole.Len(), names)
		}
	}
}

// tornWriter passes the first left bytes through to w and fails at the
// write that would go past them, after passing on what still fits.
type tornWriter struct {
	w    io.Writer
	left int
}

func (tw *tornWriter) Write(p []byte) (int, error) {
	if len(p) <= tw.left {
		tw.left -= len(p)
		return tw.w.Write(p)
	}
	n, _ := tw.w.Write(p[:tw.left])
	tw.left = 0
	return n, errors.New("torn write")
}
