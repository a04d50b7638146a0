package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"semtree"
	"semtree/internal/column"
	"semtree/internal/mux"
)

// TenantConfig describes one tenant the server will answer for: the
// auth token its connections present, the scheduler-level search
// options (WithQuota, WithMaxInFlight, WithAdmissionControl,
// WithProtocol, ...) that shape its admission machinery, and whether it
// may trigger admin operations. The options are the same functional
// options the in-process API takes — the serving tier adds no second
// configuration language.
type TenantConfig struct {
	// Name identifies the tenant in stats, lease reports and logs.
	Name string
	// Token is the shared secret connections present in their hello.
	Token string
	// Admin grants access to admin frames (the snapshot trigger).
	Admin bool
	// Options configure the tenant's Searcher. Query-level options set
	// here (WithK, ...) become defaults a wire request overrides.
	Options []semtree.SearchOption
}

// Config configures a Server.
type Config struct {
	// Index is the index the server answers from. Required.
	Index *semtree.Index
	// Tenants maps auth tokens onto per-tenant searchers. At least one
	// is required.
	Tenants []TenantConfig
	// SnapshotPath is where the admin snapshot frame writes the index
	// (atomically: temp file + rename). Empty disables the endpoint.
	SnapshotPath string
	// FrontEndID names this front-end in lease reports. Required when
	// AllocatorAddr is set.
	FrontEndID string
	// AllocatorAddr, when set, enables fleet-wide quotas: the server
	// periodically reports each quota'd tenant's demand to the
	// allocator at this address and applies the leased refill share to
	// the tenant's bucket.
	AllocatorAddr string
	// AllocatorToken authenticates the lease connection.
	AllocatorToken string
	// LeaseInterval is the report/renew period (default 200ms).
	LeaseInterval time.Duration
}

const (
	// defaultHelloTimeout bounds how long a connection the server or
	// the allocator accepted may take to present its hello.
	defaultHelloTimeout = 10 * time.Second
	// drainGrace is how long Drain keeps live connections answering
	// (with typed ErrDraining refusals) after the in-flight count first
	// reaches zero, so requests already on the wire when the drain
	// began are refused instead of dropped.
	drainGrace = 250 * time.Millisecond
)

// tenant is the server-side state of one configured tenant.
type tenant struct {
	name     string
	admin    bool
	searcher *semtree.Searcher
	quota    *semtree.QuotaConfig // fleet-wide config; nil = unquota'd

	// lastArrived supports the lease agent's demand measurement: the
	// admitted+quota-rejected counter at the previous report.
	lastArrived int64
}

// ServerStats is a snapshot of the server's request counters.
type ServerStats struct {
	// Conns counts accepted connections that passed the hello.
	Conns int64
	// Served counts search requests answered (success or typed error).
	Served int64
	// RejectedDraining counts requests refused with ErrDraining.
	RejectedDraining int64
	// Snapshots counts admin snapshots taken.
	Snapshots int64
}

// Server hosts per-tenant Searchers behind the serve wire protocol.
// Connections are concurrent and so are requests within one connection:
// each connection's serving end (mux.Server) answers every request on
// one of its parked workers, and responses are serialized by the
// connection's write lock, so a slow query never blocks the queries
// behind it.
type Server struct {
	cfg     Config
	tenants map[string]*tenant // keyed by token

	mu    sync.Mutex
	lis   net.Listener
	conns map[net.Conn]*mux.Server[request] // each live connection's serving end

	draining atomic.Bool    // written under mu, see Drain
	connWG   sync.WaitGroup // connection handlers + accept loop

	connCount        atomic.Int64
	served           atomic.Int64
	rejectedDraining atomic.Int64
	snapshots        atomic.Int64
}

// NewServer builds a server over cfg, constructing one Searcher per
// tenant (each with its own scheduler, quota bucket and admission
// queue — the same isolation the in-process API gives).
func NewServer(cfg Config) (*Server, error) {
	if cfg.Index == nil {
		return nil, fmt.Errorf("serve: Config.Index is required")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("serve: at least one tenant is required")
	}
	if cfg.LeaseInterval <= 0 {
		cfg.LeaseInterval = 200 * time.Millisecond
	}
	if cfg.AllocatorAddr != "" && cfg.FrontEndID == "" {
		return nil, fmt.Errorf("serve: FrontEndID is required with AllocatorAddr")
	}
	s := &Server{
		cfg:     cfg,
		tenants: make(map[string]*tenant, len(cfg.Tenants)),
		conns:   make(map[net.Conn]*mux.Server[request]),
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("serve: tenant with empty name")
		}
		if _, dup := s.tenants[tc.Token]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant token (tenant %q)", tc.Name)
		}
		// The options applied to a zero SearchOptions reveal the
		// tenant's fleet-wide quota — the single source of truth the
		// lease agent scales shares from.
		var o semtree.SearchOptions
		for _, opt := range tc.Options {
			opt(&o)
		}
		s.tenants[tc.Token] = &tenant{
			name:     tc.Name,
			admin:    tc.Admin,
			searcher: cfg.Index.Searcher(tc.Options...),
			quota:    o.Quota,
		}
	}
	return s, nil
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Conns:            s.connCount.Load(),
		Served:           s.served.Load(),
		RejectedDraining: s.rejectedDraining.Load(),
		Snapshots:        s.snapshots.Load(),
	}
}

// TenantStats returns the named tenant's scheduler snapshot (admission
// counters, quota level, metered cost), or false if no such tenant.
func (s *Server) TenantStats(name string) (semtree.SchedulerStats, bool) {
	for _, t := range s.tenants {
		if t.name == name {
			return t.searcher.SchedulerStats(), true
		}
	}
	return semtree.SchedulerStats{}, false
}

// Serve accepts connections on lis until ctx is done or Drain is
// called, then returns. Each connection runs on its own goroutine and
// its requests on its serving end's workers; Serve itself blocks. The
// listener is owned by the server from here on.
func (s *Server) Serve(ctx context.Context, lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()

	if s.cfg.AllocatorAddr != "" {
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.leaseLoop(ctx)
		}()
	}
	stop := context.AfterFunc(ctx, func() { _ = lis.Close() })
	defer stop()

	for {
		conn, err := lis.Accept()
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return nil // listener closed by Drain
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handleConn(ctx, conn)
		}()
	}
}

// Drain performs the graceful-shutdown contract: stop accepting new
// connections, refuse new requests on live connections with the typed
// retryable ErrDraining, let every request in flight on a live
// connection finish and get its response written, hold the connections
// open for a grace window so requests already on the wire when the
// drain began still get their typed refusal (a frame can sit in a
// kernel buffer while the in-flight count reads zero — closing at that
// instant would drop it silently), then close the connections. Zero
// admitted requests are dropped. ctx bounds the wait; an expired ctx
// abandons the stragglers and returns its error.
func (s *Server) Drain(ctx context.Context) error {
	// Stop every connection's serving end: from here on its read loop
	// refuses what it reads. A connection tracked later was tracked
	// after draining was set, so its hello is refused and it serves
	// nothing.
	s.mu.Lock()
	s.draining.Store(true)
	if s.lis != nil {
		_ = s.lis.Close()
	}
	quiet := make([]<-chan struct{}, 0, len(s.conns))
	for _, end := range s.conns {
		quiet = append(quiet, end.Stop())
	}
	s.mu.Unlock()

	// Wait for the requests the ends were running to be answered, then
	// for the grace window, in which the connections' read loops write
	// the refusals themselves.
	err := waitAll(ctx, quiet)
	if err == nil {
		grace := time.NewTimer(drainGrace)
		defer grace.Stop()
		select {
		case <-grace.C:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}

	// Responses are out (or abandoned): snap the connections shut so
	// their read loops unblock, and wait for every connection handler;
	// each closes its serving end, whose parked workers exit.
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return err
}

// waitAll waits until every channel of chans is closed, or until ctx
// ends, whose error it returns.
func waitAll(ctx context.Context, chans []<-chan struct{}) error {
	for _, c := range chans {
		select {
		case <-c:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// write sends one frame of type ft through w, its body appended by
// appendBody, in one Write. A body over maxFrameSize is refused with
// ErrProtocol and nothing is written, so the stream stays in step.
func write(w *mux.Writer, ft uint8, appendBody func([]byte) []byte) error {
	_, err := w.Write(func(b *column.Appender) (byte, error) {
		*b = appendBody(*b)
		return ft, nil
	})
	return protocolErr(err)
}

// track registers conn and its serving end for Drain, and returns the
// function that ends both: Drain no longer sees them, the end's workers
// exit, and the connection closes.
func (s *Server) track(conn net.Conn, end *mux.Server[request]) func() {
	s.mu.Lock()
	s.conns[conn] = end
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		end.Close()
		_ = conn.Close()
	}
}

// acceptHello runs the server half of the hello exchange on a freshly
// accepted connection, for the query server and the allocator alike. It
// reads through br into in, the reader and buffer the connection's read
// loop goes on to use, and answers through w. The hello must arrive
// within defaultHelloTimeout — so an idle dialer cannot pin a handler
// goroutine — and afterwards the connection may idle indefinitely
// between requests. The deadline is armed from the wall clock whatever
// clock the caller's own logic runs on: a socket deadline is a
// wall-clock instant. A hello in a foreign protocol version is refused
// with ErrVersion; otherwise auth decides on the token, returning the
// sentinel to refuse with or nil to accept. It returns nil once the
// connection is accepted and acknowledged; otherwise the refusal it
// acknowledged, or the read, decode or write that failed.
func acceptHello(conn net.Conn, br *bufio.Reader, in *column.Frame, w *mux.Writer, auth func(token string) error) error {
	_ = conn.SetReadDeadline(time.Now().Add(defaultHelloTimeout))
	ft, body, _, err := in.Read(br, maxFrameSize)
	if err != nil {
		return protocolErr(err)
	}
	if ft != ftHello {
		return fmt.Errorf("%w: frame type %d before the hello", ErrProtocol, ft)
	}
	hello, err := decodeHello(string(body))
	if err != nil {
		return err
	}
	var refusal error
	if hello.Version != protoVersion {
		refusal = fmt.Errorf("%w: server speaks %d, client sent %d", ErrVersion, protoVersion, hello.Version)
	} else {
		refusal = auth(hello.Token)
	}
	ack := helloAckFrame{ReqID: hello.ReqID, Version: protoVersion}
	if refusal != nil {
		ack.Code, ack.Msg, _ = encodeError(refusal)
	}
	if err := write(w, ftHelloAck, func(b []byte) []byte { return appendHelloAck(b, ack) }); err != nil {
		return err
	}
	if refusal != nil {
		return refusal
	}
	_ = conn.SetReadDeadline(time.Time{})
	return nil
}

// request is a decoded request frame: a search, or an admin snapshot
// trigger (ft).
type request struct {
	ft       uint8
	search   searchFrame
	snapshot snapshotFrame
}

// handleConn runs one connection: hello exchange, then a read loop that
// hands each request to the connection's serving end, or refuses it
// with ErrDraining once the drain has stopped the end. A protocol error
// closes the connection — framing cannot be resynchronized after
// garbage. Requests still running then finish on their own; Drain waits
// for them before it closes a connection.
func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	var t *tenant // set by the hello, before the first request
	end := mux.NewServer(conn, maxFrameSize, func(w *mux.Writer, r request) {
		if r.ft == ftSnapshot {
			s.handleSnapshot(t, w, r.snapshot)
		} else {
			s.handleSearch(ctx, t, w, r.search)
		}
	})
	defer s.track(conn, end)()

	br := bufio.NewReader(conn)
	var in column.Frame
	w := end.Writer()
	err := acceptHello(conn, br, &in, w, func(token string) error {
		var known bool
		if t, known = s.tenants[token]; !known {
			return ErrAuth
		}
		if s.draining.Load() {
			return ErrDraining
		}
		return nil
	})
	if err != nil {
		return
	}
	s.connCount.Add(1)

	for {
		ft, body, _, err := in.Read(br, maxFrameSize)
		if err != nil {
			return // clean close, peer gone, or unframeable garbage
		}
		r := request{ft: ft}
		switch ft {
		case ftSearch:
			r.search, err = decodeSearch(string(body))
		case ftSnapshot:
			r.snapshot, err = decodeSnapshot(string(body))
		default:
			return // a server never receives acks or results
		}
		if err != nil {
			return
		}
		if !end.Go(r) {
			s.refuse(w, r)
		}
	}
}

// refuse answers r with ErrDraining: the drain has stopped its
// connection's serving end.
func (s *Server) refuse(w *mux.Writer, r request) {
	s.rejectedDraining.Add(1)
	if r.ft == ftSnapshot {
		writeSnapshotAck(w, r.snapshot.ReqID, failedSnapshot(ErrDraining))
	} else {
		writeResult(w, r.search.ReqID, failedResult(ErrDraining))
	}
}

// handleSearch answers one query. The request's absolute deadline is
// rebuilt into a context derived from the server's own, so both a
// client deadline and a server shutdown bound the execution; the
// decoded request fields are applied as functional options over the
// tenant's searcher, sharing its scheduler and quota bucket. The reply
// is encoded straight from the result's matches into the connection's
// frame buffer.
func (s *Server) handleSearch(ctx context.Context, t *tenant, w *mux.Writer, f searchFrame) {
	if f.Mode > uint8(semtree.ModeRange) {
		writeResult(w, f.ReqID, failedResult(fmt.Errorf("%w: unknown search mode %d", ErrProtocol, f.Mode)))
		return
	}
	if f.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, f.Deadline))
		defer cancel()
	}
	// Zero-valued request fields mean "not specified": the tenant's
	// configured defaults stand. Only explicit overrides are applied —
	// a client that sets nothing gets exactly the tenant's searcher.
	var wopts []semtree.SearchOption
	if f.Mode != uint8(semtree.ModeAuto) {
		wopts = append(wopts, semtree.WithMode(semtree.SearchMode(f.Mode)))
	}
	if f.K > 0 {
		wopts = append(wopts, semtree.WithK(int(f.K)))
	}
	if f.Radius > 0 {
		wopts = append(wopts, semtree.WithRadius(f.Radius))
	}
	if f.ExactFactor > 0 {
		wopts = append(wopts, semtree.WithExactFactor(int(f.ExactFactor)))
	}
	sr := t.searcher
	if len(wopts) > 0 {
		sr = sr.With(wopts...)
	}
	res, _ := sr.Search(ctx, f.Query)
	s.served.Add(1)

	out := resultFrame{Matches: res.Matches}
	if res.Err != nil {
		out = failedResult(res.Err)
	}
	out.Stats = res.Stats
	writeResult(w, f.ReqID, out)
}

// failedResult is the result frame that reports err.
func failedResult(err error) resultFrame {
	code, msg, detail := encodeError(err)
	return resultFrame{HasErr: true, Code: code, Msg: msg, Detail: detail}
}

// failedSnapshot is the snapshot ack that reports err.
func failedSnapshot(err error) snapshotAckFrame {
	code, msg, detail := encodeError(err)
	return snapshotAckFrame{HasErr: true, Code: code, Msg: msg, Detail: detail}
}

// writeResult writes r as the answer to request id. A result over
// maxFrameSize is not sent; the error that refused it is, so the call
// it answers learns why rather than waiting on a reply that never
// comes.
func writeResult(w *mux.Writer, id uint64, r resultFrame) {
	r.ReqID = id
	if err := write(w, ftResult, func(b []byte) []byte { return appendResult(b, r) }); errors.Is(err, ErrProtocol) {
		failed := failedResult(err)
		failed.Stats = r.Stats
		writeResult(w, id, failed)
	}
}

// writeSnapshotAck is writeResult for a snapshot ack.
func writeSnapshotAck(w *mux.Writer, id uint64, r snapshotAckFrame) {
	r.ReqID = id
	if err := write(w, ftSnapshotAck, func(b []byte) []byte { return appendSnapshotAck(b, r) }); errors.Is(err, ErrProtocol) {
		writeSnapshotAck(w, id, failedSnapshot(err))
	}
}

// handleSnapshot services the admin snapshot trigger: Save the serving
// index to the configured path, atomically (temp file + rename), while
// queries keep running — the single-critical-section Save guarantees a
// consistent snapshot without stopping the world.
func (s *Server) handleSnapshot(t *tenant, w *mux.Writer, f snapshotFrame) {
	fail := func(err error) { writeSnapshotAck(w, f.ReqID, failedSnapshot(err)) }
	if !t.admin {
		fail(ErrNotAdmin)
		return
	}
	if s.cfg.SnapshotPath == "" {
		fail(errors.New("serve: no snapshot path configured"))
		return
	}
	n, err := snapshotTo(s.cfg.SnapshotPath, func(w io.Writer) error { return semtree.Save(w, s.cfg.Index) })
	if err != nil {
		fail(err)
		return
	}
	s.snapshots.Add(1)
	writeSnapshotAck(w, f.ReqID, snapshotAckFrame{Bytes: n})
}

// snapshotTo writes a snapshot to path so that a crash at any point
// leaves either the old file or the new one there: save into a temp
// file beside path, sync it (its bytes are on disk before any name
// points at them), close it, rename it over path, then sync the
// directory (the rename itself is on disk before the ack goes out).
func snapshotTo(path string, save func(io.Writer) error) (uint64, error) {
	tmp, err := snapshotTemp(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // a no-op once the rename has moved it
	if err := save(tmp); err != nil {
		tmp.Close()
		return 0, err
	}
	info, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return uint64(info.Size()), nil
}

// syncDir syncs a directory, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// snapshotTemp creates the snapshot's temp file beside its target, so
// the final rename never crosses a filesystem.
func snapshotTemp(path string) (*os.File, error) {
	return os.CreateTemp(filepath.Dir(path), ".semtree-snap-*")
}

// leaseLoop is the front-end half of the distributed-quota protocol:
// every LeaseInterval it reports each quota'd tenant's recent demand to
// the allocator and applies the granted share to the tenant's bucket in
// place (SetQuotaRate keeps earned tokens). If the allocator is
// unreachable the tenants keep their current rates — fail-static: a
// brief allocator outage neither drains nor un-throttles anyone.
func (s *Server) leaseLoop(ctx context.Context) {
	ticker := time.NewTicker(s.cfg.LeaseInterval)
	defer ticker.Stop()
	// The allocator is dialled on the first report and redialled on the
	// report after its connection failed, as a query Client's server is.
	alloc := &Client{addr: s.cfg.AllocatorAddr, token: s.cfg.AllocatorToken}
	defer alloc.Close()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if s.draining.Load() {
			return
		}
		for _, t := range s.tenants {
			if t.quota == nil {
				continue
			}
			st := t.searcher.SchedulerStats()
			arrived := st.Admitted + st.RejectedQuota
			demand := float64(arrived-t.lastArrived) / s.cfg.LeaseInterval.Seconds()
			t.lastArrived = arrived
			grant, err := alloc.lease(ctx, leaseReportFrame{
				Tenant:    t.name,
				FrontEnd:  s.cfg.FrontEndID,
				DemandQPS: demand,
			})
			if err != nil {
				break // retry next tick
			}
			if grant.TTLNanos <= 0 {
				continue // allocator does not manage this tenant
			}
			t.searcher.SetQuotaRate(grant.Capacity, grant.RefillPerSec)
		}
	}
}
