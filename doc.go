// Package semtree is a reproduction of "SemTree: an index for
// supporting semantic retrieval of documents" (Amato et al., ICDE
// Workshops 2015): a distributed KD-tree over RDF-style
// (subject, predicate, object) triples, embedded into a vector space
// with FastMap under the paper's weighted semantic distance
// (Levenshtein for literals, taxonomy measures such as Wu & Palmer for
// concepts).
//
// The public API is the Index facade: build it over a triple store,
// then query it through a Searcher — the concurrent query engine. The
// query surface is context-first: every entry point takes a
// context.Context, and cancellation is real — an expired deadline
// aborts the cross-partition fan-out and abandons outstanding
// partition replies at the message fabric, so a query never costs more
// than its budget. A Searcher fixes the per-query options once (k,
// range radius, exact re-rank factor, parallelism) and answers single
// queries or whole batches. A batch is the single-query path run on a
// bounded worker pool — results[i] is exactly what Search would return
// for the i-th triple — while inside the tree a query overlaps its
// cross-partition hops with the probe-then-fan-out k-NN protocol.
//
// Every query returns a Result: the ranked Matches, an ExecStats with
// the query's true execution cost (nodes visited, buckets scanned,
// distance evaluations, partitions contacted, fabric messages, wall
// time, protocol used — the paper's §V cost model surfaced per
// request), and the query's own error. Batch errors are attributed per
// query: one failed query never poisons the healthy queries of its
// batch, and the batch-level error is reserved for the context.
//
// Query execution is self-tuning. An online cost model watches the
// ExecStats stream and the fabric's own call latencies, maintains EWMA
// estimates of per-hop transit and per-node compute, and picks the
// cross-partition k-NN protocol per query (ProtocolAuto, the default):
// the paper's sequential Rs-forwarding when the workload is CPU-bound,
// the probe-then-fan-out when hop latency dominates — including
// adapting within a handful of queries when the network's latency
// changes mid-run. Pin a strategy with WithProtocol(ProtocolSequential)
// or WithProtocol(ProtocolFanOut) when determinism matters more than
// the estimates.
//
// The same scheduler is the admission-control point for heavy
// multi-user traffic. WithMaxInFlight bounds a Searcher's concurrently
// executing queries (with a bounded admission queue behind the limit;
// the surplus is shed with ErrAdmissionRejected), and
// WithAdmissionControl(true) rejects a query up front with
// ErrDeadlineBudget when its context deadline is provably below the
// model's cost estimate — no fabric message is spent on an answer
// nobody will receive. Searcher.SchedulerStats() snapshots the
// admission counters, the live estimates and the protocol-choice
// histogram:
//
//	s := idx.Searcher(semtree.WithK(3),
//		semtree.WithMaxInFlight(64), semtree.WithAdmissionControl(true))
//	results, _ := s.SearchBatch(ctx, queryTriples)
//	for _, r := range results {
//		if errors.Is(r.Err, semtree.ErrAdmissionRejected) { … } // shed: retry with backoff
//		if errors.Is(r.Err, semtree.ErrDeadlineBudget) { … }    // budget too small for this index
//	}
//	_ = s.SchedulerStats().HopLatency // what the model currently believes
//
// For multi-tenant serving the scheduler also meters and enforces
// cost. Every query's ExecStats are accumulated per Searcher —
// cumulative distance evaluations, fabric messages and wall time,
// priced onto a single cost-unit scale by CostOf — so one Searcher per
// tenant yields per-tenant bills for free. WithQuota(capacity,
// refillPerSec) adds a token bucket in those units: each admission is
// charged with the cost model's estimate of the query, the observed
// stats settle the difference on completion, and a tenant whose bucket
// is empty is rejected with ErrQuotaExhausted before any fabric
// message is spent — an over-budget tenant is throttled to its refill
// rate while other tenants' latency is untouched:
//
//	tenant := idx.Searcher(semtree.WithK(3),
//		semtree.WithQuota(4*typicalCost, typicalCost*targetQPS))
//	if _, err := tenant.Search(ctx, q); errors.Is(err, semtree.ErrQuotaExhausted) {
//		// back off ~cost/refill and retry; the bucket refills lazily
//	}
//	_ = tenant.SchedulerStats().MeteredCost // the tenant's cumulative bill
//
// The same machinery serves network callers: internal/serve (run via
// cmd/semtree-serve) hosts one Searcher per authenticated tenant
// behind a length-prefixed binary protocol, propagating client
// deadlines into contexts and carrying every sentinel across the wire
// as a stable numeric code (ErrorCode, RegisterErrorCode) so
// errors.Is works identically on both sides of the connection. The
// TCP fabric between partitions codes its errors from the same
// registry, so a partition's refusal of a request that does not fit its
// state — ErrRequestRefused, permanent and never retried — arrives
// typed however the tree is deployed. A
// fleet of such front-ends can lease per-tenant refill shares from a
// central allocator, making one tenant's quota fleet-wide rather than
// per-process.
//
// Quick start:
//
//	store := triple.NewStore()            // fill with triples …
//	idx, err := semtree.Build(store, semtree.Options{})
//	res, err := idx.Searcher(semtree.WithK(3)).Search(ctx, queryTriple) // res.Matches, res.Stats
//
// Serving a query stream with deadlines and per-query stats:
//
//	s := idx.Searcher(semtree.WithK(3), semtree.WithParallelism(8))
//	ctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
//	defer cancel()
//	results, err := s.SearchBatch(ctx, queryTriples) // results[i] answers queryTriples[i]
//	for _, r := range results {
//		if r.Err != nil { … }                 // this query failed or was cut off
//		_ = r.Stats.FabricMessages            // what the query actually cost
//	}
//
// Range retrieval and exact re-ranking hang off the same options:
//
//	near := idx.Searcher(semtree.WithRadius(0.35))
//	exact := idx.Searcher(semtree.WithK(5), semtree.WithExactFactor(4))
//
// Index.KNearestIDs, the ranked-IDs-only form the requirements checker
// consumes, is the one one-shot wrapper over a Searcher.
//
// Data is placed when it arrives — a bulk load installs a balanced
// layout, single inserts spill leaves to new partitions as capacity
// runs out — and Index.Rebalance, an offline pass, is the one operation
// that moves it afterwards: it restores the bulk-loaded layout over
// every budgeted partition.
//
// The distributed machinery (partitions, build partition,
// cross-partition search), the substrates (vocabularies, distance
// measures, FastMap, KD-tree, message fabric, NLP extraction, synthetic
// corpora) and the benchmark harness regenerating every figure of the
// paper's evaluation live under internal/.
package semtree
