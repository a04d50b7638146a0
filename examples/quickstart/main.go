// Quickstart: index a handful of requirement triples and retrieve the
// semantically closest ones to an example triple — the paper's §III-A
// resources and §II query.
package main

import (
	"context"
	"fmt"
	"log"

	semtree "semtree"
	"semtree/internal/triple"
)

func main() {
	// The paper's example resources (§III-A) plus some context.
	lines := []string{
		"('OBSW001', Fun:acquire_in, InType:pre-launch_phase)",
		"('OBSW001', Fun:accept_cmd, CmdType:start-up)",
		"('OBSW001', Fun:send_msg, MsgType:power_amplifier)",
		"('OBSW002', Fun:accept_cmd, CmdType:self-test)",
		"('OBSW002', Fun:send_msg, MsgType:housekeeping)",
		"('PDU9', Fun:power_on, 'heater_1')",
		"('PDU9', Fun:power_off, 'heater_1')",
		"('TTC3', Fun:broadcast_msg, MsgType:fault_alert)",
	}
	store := triple.NewStore()
	for i, l := range lines {
		t, err := triple.ParseTriple(l)
		if err != nil {
			log.Fatal(err)
		}
		store.Add(t, triple.Provenance{Doc: "QUICKSTART", Section: fmt.Sprintf("REQ-%d", i+1)})
	}

	idx, err := semtree.Build(store, semtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()
	fmt.Printf("indexed %d triples (dims=%d)\n\n", idx.Len(), idx.Dims())

	// The §II query: the target triple for a potential inconsistency
	// with (OBSW001, accept_cmd, start-up).
	query, _ := triple.ParseTriple("('OBSW001', Fun:block_cmd, CmdType:start-up)")
	fmt.Printf("k-nearest to target %s:\n", query)
	nearest, err := idx.Searcher(semtree.WithK(3)).Search(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range nearest.Matches {
		fmt.Printf("  %.4f  %-55s  (from %s/%s)\n", m.Dist, m.Triple, m.Prov.Doc, m.Prov.Section)
	}

	fmt.Printf("\nrange query within 0.35 of %s:\n", query)
	inRange, err := idx.Searcher(semtree.WithRadius(0.35)).Search(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range inRange.Matches {
		fmt.Printf("  %.4f  %s\n", m.Dist, m.Triple)
	}
}
