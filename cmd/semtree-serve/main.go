// Command semtree-serve runs the networked serving tier: a standalone
// server hosting per-tenant Searchers behind the serve wire protocol,
// a fleet-quota allocator, and a load-generator client for smoke tests
// and benchmarks.
//
// Usage:
//
//	semtree-serve serve -addr 127.0.0.1:7343 -synth 5000 -tenant 'bench:bench-token'
//	semtree-serve serve -triples corpus.txt -tenant 'ops:s3cret:admin' -snapshot /var/lib/semtree/index.snap
//	semtree-serve serve -addr 127.0.0.1:0 -addr-file /tmp/serve.addr \
//	    -tenant 'acme:tok:quota=2000/500' -frontend-id fe0 -allocator 127.0.0.1:7344 -allocator-token fleet
//	semtree-serve alloc -addr 127.0.0.1:7344 -token fleet -tenant 'acme:2000/500'
//	semtree-serve loadgen -addr 127.0.0.1:7343 -token bench-token -mode closed -workers 4 -duration 5s
//	semtree-serve loadgen -addr 127.0.0.1:7343 -token bench-token -mode open -rate 200 -duration 10s
//
// A SIGTERM (or ^C) drains the server gracefully: the listener closes,
// in-flight requests finish and get their responses, late requests are
// refused with the typed retryable draining error, and the process
// reports its counters before exiting. Zero admitted requests are
// dropped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	semtree "semtree"
	"semtree/internal/serve"
	"semtree/internal/synth"
	"semtree/internal/triple"
)

func main() {
	if len(os.Args) < 2 {
		fatal(fmt.Errorf("usage: semtree-serve <serve|alloc|loadgen> [flags]"))
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:])
	case "alloc":
		err = runAlloc(os.Args[2:])
	case "loadgen":
		err = runLoadgen(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q (have serve, alloc, loadgen)", os.Args[1])
	}
	if err != nil {
		fatal(err)
	}
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7343", "listen address (port 0 picks a free port; see -addr-file)")
		addrFile   = fs.String("addr-file", "", "write the bound address here once listening (for scripted clients)")
		triples    = fs.String("triples", "", "triples file to index (one Turtle-like triple per line)")
		synthN     = fs.Int("synth", 5000, "index a synthetic workload of N triples instead of -triples")
		seed       = fs.Int64("seed", 1, "build / synthetic-workload seed")
		partitions = fs.Int("partitions", 4, "number of index partitions")
		defaultK   = fs.Int("k", 3, "default K configured on every tenant (a request overrides it)")
		snapshot   = fs.String("snapshot", "", "snapshot path for the admin save endpoint (empty disables it)")
		frontendID = fs.String("frontend-id", "", "this front-end's name in fleet lease reports")
		allocAddr  = fs.String("allocator", "", "fleet-quota allocator address (empty = local quotas only)")
		allocTok   = fs.String("allocator-token", "", "allocator auth token")
		leaseIvl   = fs.Duration("lease-interval", 0, "lease report/renew period (default 200ms)")
		drainTime  = fs.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain")
		tenantSpec multiFlag
	)
	fs.Var(&tenantSpec, "tenant", "tenant spec 'name:token[:admin][:quota=CAP/REFILL]' (repeatable; required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tenants, err := parseTenants(tenantSpec, *defaultK)
	if err != nil {
		return err
	}

	store := triple.NewStore()
	if *triples != "" {
		f, err := os.Open(*triples)
		if err != nil {
			return err
		}
		_, _, err = store.AddFrom(f, triple.Provenance{Doc: *triples})
		f.Close()
		if err != nil {
			return err
		}
	} else {
		gen := synth.New(synth.Config{Seed: *seed, Actors: 200}, nil)
		store.AddAll(gen.Triples(*synthN), triple.Provenance{Doc: "synth", Section: "sec"})
	}
	opts := semtree.Options{Seed: *seed, MaxPartitions: *partitions}
	if *partitions > 1 {
		opts.PartitionCapacity = store.Len() / *partitions
	}
	idx, err := semtree.Build(store, opts)
	if err != nil {
		return err
	}
	defer idx.Close()
	fmt.Printf("semtree-serve: indexed %d triples in %d partition(s)\n", idx.Len(), idx.PartitionCount())

	srv, err := serve.NewServer(serve.Config{
		Index:          idx,
		Tenants:        tenants,
		SnapshotPath:   *snapshot,
		FrontEndID:     *frontendID,
		AllocatorAddr:  *allocAddr,
		AllocatorToken: *allocTok,
		LeaseInterval:  *leaseIvl,
	})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if err := announce(*addrFile, lis); err != nil {
		return err
	}
	fmt.Printf("semtree-serve: listening on %s (%d tenant(s))\n", lis.Addr(), len(tenants))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.WithoutCancel(ctx), lis) }()

	select {
	case err := <-serveDone:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	fmt.Println("semtree-serve: draining...")
	dctx, dcancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTime)
	defer dcancel()
	drainErr := srv.Drain(dctx)
	<-serveDone
	st := srv.Stats()
	if drainErr != nil {
		fmt.Printf("semtree-serve: drain timed out: served=%d rejected_draining=%d conns=%d snapshots=%d\n",
			st.Served, st.RejectedDraining, st.Conns, st.Snapshots)
		return drainErr
	}
	fmt.Printf("semtree-serve: drained clean: served=%d rejected_draining=%d conns=%d snapshots=%d\n",
		st.Served, st.RejectedDraining, st.Conns, st.Snapshots)
	return nil
}

func runAlloc(args []string) error {
	fs := flag.NewFlagSet("alloc", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7344", "listen address")
		addrFile   = fs.String("addr-file", "", "write the bound address here once listening")
		token      = fs.String("token", "", "auth token front-ends must present (required)")
		ttl        = fs.Duration("ttl", 0, "lease TTL: a front-end silent this long returns its share (default 2s)")
		tenantSpec multiFlag
	)
	fs.Var(&tenantSpec, "tenant", "fleet quota spec 'name:CAP/REFILL' in cost units (repeatable; required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *token == "" {
		return fmt.Errorf("alloc: -token is required")
	}
	fleet := make(map[string]semtree.QuotaConfig, len(tenantSpec))
	for _, spec := range tenantSpec {
		name, q, ok := strings.Cut(spec, ":")
		if !ok {
			return fmt.Errorf("alloc: bad -tenant %q (want 'name:CAP/REFILL')", spec)
		}
		qc, err := parseQuota(q)
		if err != nil {
			return fmt.Errorf("alloc: bad -tenant %q: %w", spec, err)
		}
		fleet[name] = qc
	}
	if len(fleet) == 0 {
		return fmt.Errorf("alloc: at least one -tenant is required")
	}

	alloc := serve.NewAllocator(serve.AllocatorConfig{Token: *token, Tenants: fleet, TTL: *ttl})
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if err := announce(*addrFile, lis); err != nil {
		return err
	}
	fmt.Printf("semtree-serve: allocator listening on %s (%d managed tenant(s))\n", lis.Addr(), len(fleet))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := alloc.Serve(ctx, lis); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	fmt.Println("semtree-serve: allocator stopped")
	return nil
}

func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7343", "server address")
		token    = fs.String("token", "", "tenant auth token (required)")
		mode     = fs.String("mode", "closed", "arrival model: closed (workers loop) or open (fixed-rate arrivals)")
		workers  = fs.Int("workers", 4, "closed-loop worker count")
		rate     = fs.Float64("rate", 100, "open-loop arrival rate (queries per second)")
		duration = fs.Duration("duration", 5*time.Second, "how long to generate load")
		k        = fs.Int("k", 0, "per-request K override (0 = the tenant's default)")
		queryN   = fs.Int("queries", 200, "distinct synthetic queries to cycle through")
		qseed    = fs.Int64("seed", 2, "query workload seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *token == "" {
		return fmt.Errorf("loadgen: -token is required")
	}
	gen := synth.New(synth.Config{Seed: *qseed, Actors: 200}, nil)
	queries := make([]triple.Triple, *queryN)
	for i := range queries {
		queries[i] = gen.RandomTriple()
	}
	var opts []semtree.SearchOption
	if *k > 0 {
		opts = append(opts, semtree.WithK(*k))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cl, err := serve.Dial(ctx, *addr, *token)
	if err != nil {
		return err
	}
	defer cl.Close()

	var (
		mu        sync.Mutex
		completed int
		rejected  int // quota-rejected
		refused   int // draining-refused
		failed    int
		lastErr   error
		walls     []time.Duration
	)
	record := func(wall time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			completed++
			walls = append(walls, wall)
		case errors.Is(err, semtree.ErrQuotaExhausted):
			rejected++
		case errors.Is(err, serve.ErrDraining):
			refused++
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The run was cut off mid-request; not a server failure.
		default:
			failed++
			lastErr = err
		}
	}
	issue := func(i int) {
		t0 := time.Now()
		_, err := cl.Search(ctx, queries[i%len(queries)], opts...)
		record(time.Since(t0), err)
	}

	start := time.Now()
	var wg sync.WaitGroup
	switch *mode {
	case "closed":
		// Closed loop: each worker issues its next query as soon as the
		// previous answer lands — throughput is completion-coupled.
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; time.Since(start) < *duration && ctx.Err() == nil; i += *workers {
					issue(i)
				}
			}(w)
		}
	case "open":
		// Open loop: arrivals at a fixed rate regardless of completions,
		// the model that exposes queueing collapse a closed loop hides.
		interval := time.Duration(float64(time.Second) / *rate)
		if interval <= 0 {
			return fmt.Errorf("loadgen: -rate %v is too high", *rate)
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for i := 0; time.Since(start) < *duration; i++ {
			select {
			case <-ticker.C:
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					issue(i)
				}(i)
			case <-ctx.Done():
				i = *queryN // interrupted: stop arrivals, drain in-flight below
			}
			if ctx.Err() != nil {
				break
			}
		}
	default:
		return fmt.Errorf("loadgen: unknown -mode %q (want closed or open)", *mode)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	pct := func(p float64) time.Duration {
		if len(walls) == 0 {
			return 0
		}
		i := int(p * float64(len(walls)-1))
		return walls[i]
	}
	fmt.Printf("loadgen: mode=%s elapsed=%v completed=%d qps=%.1f quota_rejected=%d drain_refused=%d errors=%d p50=%v p99=%v\n",
		*mode, elapsed.Round(time.Millisecond), completed, float64(completed)/elapsed.Seconds(),
		rejected, refused, failed, pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
	if failed > 0 {
		return fmt.Errorf("loadgen: %d request(s) failed, last: %w", failed, lastErr)
	}
	if completed == 0 {
		return fmt.Errorf("loadgen: zero requests completed")
	}
	return nil
}

// parseTenants turns -tenant specs into serve tenant configs, giving
// every tenant the shared default K.
func parseTenants(specs multiFlag, defaultK int) ([]serve.TenantConfig, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: at least one -tenant is required")
	}
	out := make([]serve.TenantConfig, 0, len(specs))
	for _, spec := range specs {
		parts := strings.Split(spec, ":")
		if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("serve: bad -tenant %q (want 'name:token[:admin][:quota=CAP/REFILL]')", spec)
		}
		tc := serve.TenantConfig{Name: parts[0], Token: parts[1]}
		if defaultK > 0 {
			tc.Options = append(tc.Options, semtree.WithK(defaultK))
		}
		for _, p := range parts[2:] {
			switch {
			case p == "admin":
				tc.Admin = true
			case strings.HasPrefix(p, "quota="):
				qc, err := parseQuota(strings.TrimPrefix(p, "quota="))
				if err != nil {
					return nil, fmt.Errorf("serve: bad -tenant %q: %w", spec, err)
				}
				tc.Options = append(tc.Options, semtree.WithQuota(qc.Capacity, qc.RefillPerSec))
			default:
				return nil, fmt.Errorf("serve: bad -tenant attribute %q in %q", p, spec)
			}
		}
		out = append(out, tc)
	}
	return out, nil
}

// parseQuota parses "CAP/REFILL" in cost units.
func parseQuota(s string) (semtree.QuotaConfig, error) {
	capS, refillS, ok := strings.Cut(s, "/")
	if !ok {
		return semtree.QuotaConfig{}, fmt.Errorf("bad quota %q (want CAP/REFILL)", s)
	}
	capacity, err := strconv.ParseFloat(capS, 64)
	if err != nil {
		return semtree.QuotaConfig{}, err
	}
	refill, err := strconv.ParseFloat(refillS, 64)
	if err != nil {
		return semtree.QuotaConfig{}, err
	}
	return semtree.QuotaConfig{Capacity: capacity, RefillPerSec: refill}, nil
}

// announce writes the listener's bound address to path (for scripts
// that start the server on port 0 and need to find it).
func announce(path string, lis net.Listener) error {
	if path == "" {
		return nil
	}
	return os.WriteFile(path, []byte(lis.Addr().String()+"\n"), 0o644)
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "semtree-serve:", err)
	os.Exit(1)
}
