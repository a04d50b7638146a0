package serve

import (
	"bufio"
	"context"
	"net"
	"sync"
	"time"

	"semtree"
	"semtree/internal/column"
)

// This file is the distributed-quota seam. PR 4's token buckets are
// per-process: a tenant configured for 25 qps gets 25 qps *per
// front-end*, so a fleet of N silently multiplies every quota by N. The
// allocator closes that hole without a shared datastore: it owns each
// tenant's fleet-wide bucket definition and leases refill *shares* to
// front-ends over the same wire protocol the queries ride. Front-ends
// report demand (their recent arrival rate for the tenant) every
// LeaseInterval; the allocator splits the tenant's capacity and refill
// across the front-ends reporting within the lease TTL, proportional to
// demand (equal split when nobody reports demand), so the shares always
// sum to the configured fleet-wide rate. A front-end applies its share
// with Searcher.SetQuotaRate — in place, keeping earned tokens — and a
// front-end that dies simply stops renewing: after one TTL its share
// flows back to the survivors. The allocator is soft state; losing it
// freezes the current split (fail-static) rather than opening or
// closing the floodgates.

// AllocatorConfig configures the central quota allocator.
type AllocatorConfig struct {
	// Token authenticates front-ends (hello token of lease
	// connections).
	Token string
	// Tenants maps tenant names onto their FLEET-WIDE bucket: the
	// capacity and refill rate the whole fleet shares.
	Tenants map[string]semtree.QuotaConfig
	// TTL is how long a front-end's report stays live; a front-end that
	// has not renewed within TTL stops counting toward the split
	// (default 2s).
	TTL time.Duration
}

// Allocator is the lease server. It speaks the serve wire protocol
// (hello, then leaseReport→leaseGrant calls, answered in order) and holds
// only soft state: the last demand report per (tenant, front-end).
type Allocator struct {
	cfg AllocatorConfig

	mu      sync.Mutex
	lis     net.Listener
	reports map[string]map[string]alloReport // tenant → front-end → report

	connWG sync.WaitGroup

	// now is the injected clock (tests freeze it to step TTL expiry
	// deterministically).
	now func() time.Time
}

type alloReport struct {
	demand float64
	at     time.Time
}

// NewAllocator builds an allocator over cfg.
func NewAllocator(cfg AllocatorConfig) *Allocator {
	if cfg.TTL <= 0 {
		cfg.TTL = 2 * time.Second
	}
	return &Allocator{
		cfg:     cfg,
		reports: make(map[string]map[string]alloReport),
		now:     time.Now,
	}
}

// Serve accepts lease connections on lis until ctx is done or the
// listener is closed.
func (a *Allocator) Serve(ctx context.Context, lis net.Listener) error {
	a.mu.Lock()
	a.lis = lis
	a.mu.Unlock()
	stop := context.AfterFunc(ctx, func() { _ = lis.Close() })
	defer stop()
	for {
		conn, err := lis.Accept()
		if err != nil {
			a.connWG.Wait()
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return nil
		}
		a.connWG.Add(1)
		go func() {
			defer a.connWG.Done()
			defer conn.Close()
			a.handleConn(conn)
		}()
	}
}

// Close stops the listener; in-flight lease exchanges finish.
func (a *Allocator) Close() error {
	a.mu.Lock()
	lis := a.lis
	a.mu.Unlock()
	if lis != nil {
		_ = lis.Close()
	}
	a.connWG.Wait()
	return nil
}

func (a *Allocator) handleConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	var in column.Frame
	w := &connWriter{conn: conn}
	err := acceptHello(conn, br, &in, w, func(token string) error {
		if token != a.cfg.Token {
			return ErrAuth
		}
		return nil
	})
	if err != nil {
		return
	}
	for {
		ft, body, _, err := in.Read(br, maxFrameSize)
		if err != nil || ft != ftLeaseReport {
			return
		}
		rep, err := decodeLeaseReport(string(body))
		if err != nil {
			return
		}
		g := a.grant(rep)
		g.ReqID = rep.ReqID
		if err := w.write(ftLeaseGrant, func(b []byte) []byte { return appendLeaseGrant(b, g) }); err != nil {
			return
		}
	}
}

// grant records one report and computes the reporter's share. Shares of
// the front-ends with a live report always sum to the tenant's
// fleet-wide capacity and refill — proportional to reported demand, or
// an equal split while no one reports demand (startup, idle fleet).
func (a *Allocator) grant(rep leaseReportFrame) leaseGrantFrame {
	fleet, managed := a.cfg.Tenants[rep.Tenant]
	if !managed {
		// TTL 0 tells the front-end "not mine": it keeps its local
		// configuration.
		return leaseGrantFrame{Tenant: rep.Tenant}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	byFE := a.reports[rep.Tenant]
	if byFE == nil {
		byFE = make(map[string]alloReport)
		a.reports[rep.Tenant] = byFE
	}
	if rep.DemandQPS < 0 {
		rep.DemandQPS = 0
	}
	byFE[rep.FrontEnd] = alloReport{demand: rep.DemandQPS, at: now}

	var live int
	var total float64
	for fe, r := range byFE {
		if now.Sub(r.at) > a.cfg.TTL {
			delete(byFE, fe)
			continue
		}
		live++
		total += r.demand
	}
	// The reporter itself is always live (it reported just now).
	share := 1.0 / float64(live)
	if total > 0 {
		share = byFE[rep.FrontEnd].demand / total
	}
	return leaseGrantFrame{
		Tenant:       rep.Tenant,
		Capacity:     fleet.Capacity * share,
		RefillPerSec: fleet.RefillPerSec * share,
		TTLNanos:     int64(a.cfg.TTL),
	}
}

// leaseExchangeTimeout bounds one lease report: the dial and hello
// when its connection is new, and the report→grant call. A call that
// times out leaves the connection to the next report, so a hung
// allocator can never wedge the lease loop (and therefore Drain).
const leaseExchangeTimeout = 2 * time.Second

// lease reports one tenant's demand to the allocator this Client is
// dialled to and returns the grant.
func (c *Client) lease(ctx context.Context, rep leaseReportFrame) (leaseGrantFrame, error) {
	ctx, cancel := context.WithTimeout(ctx, leaseExchangeTimeout)
	defer cancel()
	m, err := c.conn(ctx)
	if err != nil {
		return leaseGrantFrame{}, err
	}
	body, err := m.call(ctx, ftLeaseReport, ftLeaseGrant, func(b []byte, id uint64) []byte {
		rep.ReqID = id
		return appendLeaseReport(b, rep)
	})
	if err != nil {
		return leaseGrantFrame{}, err
	}
	return decodeLeaseGrant(body)
}
