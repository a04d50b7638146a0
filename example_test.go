package semtree_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	semtree "semtree"
	"semtree/internal/reqcheck"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// ExampleBuild indexes the paper's §III-A resources and runs the §II
// inconsistency query.
func ExampleBuild() {
	store := triple.NewStore()
	for _, line := range []string{
		"('OBSW001', Fun:acquire_in, InType:pre-launch_phase)",
		"('OBSW001', Fun:accept_cmd, CmdType:start-up)",
		"('OBSW001', Fun:send_msg, MsgType:power_amplifier)",
	} {
		t, err := triple.ParseTriple(line)
		if err != nil {
			log.Fatal(err)
		}
		store.Add(t, triple.Provenance{Doc: "OBSW-SRS", Section: "REQ-1"})
	}

	idx, err := semtree.Build(store, semtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	query, _ := triple.ParseTriple("('OBSW001', Fun:block_cmd, CmdType:start-up)")
	res, err := idx.Searcher(semtree.WithK(1)).Search(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Matches[0].Triple)
	// Output: ('OBSW001', Fun:accept_cmd, CmdType:start-up)
}

// ExampleIndex_MatchPattern retrieves all triples using a predicate,
// regardless of subject and object.
func ExampleIndex_MatchPattern() {
	store := triple.NewStore()
	for _, line := range []string{
		"('OBSW001', Fun:accept_cmd, CmdType:start-up)",
		"('OBSW002', Fun:accept_cmd, CmdType:self-test)",
		"('OBSW001', Fun:send_msg, MsgType:housekeeping)",
	} {
		t, _ := triple.ParseTriple(line)
		store.Add(t, triple.Provenance{})
	}
	idx, err := semtree.Build(store, semtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	pat, _ := semtree.ParsePattern("(?, Fun:accept_cmd, ?)")
	matches, err := idx.MatchPattern(context.Background(), pat, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(matches), "matches")
	// Output: 2 matches
}

// ExampleIndex_KNearestIDs shows the inconsistency checker over an
// index: the target triple's neighborhood contains the conflict.
func ExampleIndex_KNearestIDs() {
	store := triple.NewStore()
	req, _ := triple.ParseTriple("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	conflict, _ := triple.ParseTriple("('OBSW001', Fun:block_cmd, CmdType:start-up)")
	store.Add(req, triple.Provenance{})
	store.Add(conflict, triple.Provenance{})

	idx, err := semtree.Build(store, semtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	reg := vocab.DefaultRegistry()
	checker := reqcheck.NewChecker(idx, reg)
	cands, _, err := checker.Candidates(context.Background(), req, 2)
	if err != nil {
		log.Fatal(err)
	}
	confirmed := checker.Confirmed(req, cands, store)
	fmt.Println(len(confirmed), "confirmed inconsistency")
	// Output: 1 confirmed inconsistency
}

// ExampleSearcher_SearchBatch runs a batch under a deadline and reads
// the per-query outcome: matches, execution stats, per-query error.
func ExampleSearcher_SearchBatch() {
	store := triple.NewStore()
	for _, line := range []string{
		"('OBSW001', Fun:acquire_in, InType:pre-launch_phase)",
		"('OBSW001', Fun:accept_cmd, CmdType:start-up)",
		"('OBSW001', Fun:send_msg, MsgType:power_amplifier)",
	} {
		t, err := triple.ParseTriple(line)
		if err != nil {
			log.Fatal(err)
		}
		store.Add(t, triple.Provenance{Doc: "OBSW-SRS"})
	}
	idx, err := semtree.Build(store, semtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	q1, _ := triple.ParseTriple("('OBSW001', Fun:block_cmd, CmdType:start-up)")
	q2, _ := triple.ParseTriple("('OBSW001', Fun:send_msg, MsgType:housekeeping)")

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	s := idx.Searcher(semtree.WithK(1))
	results, err := s.SearchBatch(ctx, []triple.Triple{q1, q2})
	if err != nil {
		log.Fatal(err) // batch-level: the context expired
	}
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err) // per-query: this query failed or was cut off
		}
		fmt.Printf("%s (protocol %s, %d partitions)\n",
			r.Matches[0].Triple, r.Stats.Protocol, r.Stats.Partitions)
	}
	// Output:
	// ('OBSW001', Fun:accept_cmd, CmdType:start-up) (protocol sequential, 1 partitions)
	// ('OBSW001', Fun:send_msg, MsgType:power_amplifier) (protocol sequential, 1 partitions)
}

// ExampleSearcher_quota runs one tenant under a token-bucket cost
// quota: the tenant burns its burst budget, is throttled with
// ErrQuotaExhausted (before any fabric message is spent), and is
// admitted again once the bucket has refilled.
func ExampleSearcher_quota() {
	store := triple.NewStore()
	for _, line := range []string{
		"('OBSW001', Fun:acquire_in, InType:pre-launch_phase)",
		"('OBSW001', Fun:accept_cmd, CmdType:start-up)",
		"('OBSW001', Fun:send_msg, MsgType:power_amplifier)",
	} {
		t, err := triple.ParseTriple(line)
		if err != nil {
			log.Fatal(err)
		}
		store.Add(t, triple.Provenance{Doc: "OBSW-SRS"})
	}
	idx, err := semtree.Build(store, semtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	// One Searcher per tenant isolates the quota: a 200-unit burst,
	// refilled at 1000 cost units per second (see semtree.CostOf for
	// the cost-unit scale).
	tenant := idx.Searcher(semtree.WithK(1), semtree.WithQuota(200, 1000))
	q, _ := triple.ParseTriple("('OBSW001', Fun:block_cmd, CmdType:start-up)")

	admitted, throttled := 0, 0
	for i := 0; i < 50; i++ {
		_, err := tenant.Search(context.Background(), q)
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, semtree.ErrQuotaExhausted):
			throttled++
		default:
			log.Fatal(err)
		}
	}
	fmt.Println("burst admitted:", admitted > 0)
	fmt.Println("then throttled:", throttled > 0)

	// The bucket refills lazily at the configured rate; after a pause
	// the tenant is served again.
	time.Sleep(300 * time.Millisecond)
	_, err = tenant.Search(context.Background(), q)
	fmt.Println("recovered:", err == nil)
	// Output:
	// burst admitted: true
	// then throttled: true
	// recovered: true
}

// ExampleSearcher_SchedulerStats reads a searcher's scheduler snapshot:
// admission counters and the cumulative metered cost of the tenant's
// traffic.
func ExampleSearcher_SchedulerStats() {
	store := triple.NewStore()
	for _, line := range []string{
		"('OBSW001', Fun:accept_cmd, CmdType:start-up)",
		"('OBSW001', Fun:send_msg, MsgType:housekeeping)",
	} {
		t, err := triple.ParseTriple(line)
		if err != nil {
			log.Fatal(err)
		}
		store.Add(t, triple.Provenance{})
	}
	idx, err := semtree.Build(store, semtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	s := idx.Searcher(semtree.WithK(1))
	q1, _ := triple.ParseTriple("('OBSW001', Fun:block_cmd, CmdType:start-up)")
	q2, _ := triple.ParseTriple("('OBSW001', Fun:send_msg, MsgType:power_amplifier)")
	for _, q := range []triple.Triple{q1, q2} {
		if _, err := s.Search(context.Background(), q); err != nil {
			log.Fatal(err)
		}
	}

	st := s.SchedulerStats()
	fmt.Println("admitted:", st.Admitted)
	fmt.Println("rejected:", st.RejectedLoad+st.RejectedBudget+st.RejectedQuota)
	fmt.Println("fabric messages:", st.MeteredFabricMessages)
	fmt.Println("metered cost > 0:", st.MeteredCost > 0)
	// Output:
	// admitted: 2
	// rejected: 0
	// fabric messages: 2
	// metered cost > 0: true
}
