// Distributed deployment: a SemTree spread over partitions that talk
// across a real TCP fabric (loopback), exercising the distributed
// insertion, build-partition and cross-partition search paths end to
// end — the closest runnable analogue of the paper's MPJ cluster.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	semtree "semtree"
	"semtree/internal/cluster"
	"semtree/internal/synth"
	"semtree/internal/triple"
)

func main() {
	fabric := cluster.NewTCP()
	defer fabric.Close()

	gen := synth.New(synth.Config{Seed: 11}, nil)
	store := triple.NewStore()
	for _, t := range gen.Triples(3000) {
		store.Add(t, triple.Provenance{Doc: "GEN"})
	}

	idx, err := semtree.Build(store, semtree.Options{
		Fabric:            fabric,
		MaxPartitions:     5,
		PartitionCapacity: 400,
		Seed:              11,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	st, err := idx.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d triples over %d partitions (TCP fabric)\n", idx.Len(), st.Partitions)
	fmt.Printf("points per partition: %v\n", st.PartitionPoints)
	fmt.Printf("tree nodes: %d (%d leaves)\n\n", st.Nodes, st.Leaves)

	// Query under a deadline, as a serving system would: the deadline
	// crosses the TCP fabric in each message's frame header, so an expired
	// query stops on the remote partitions too, and the Result reports
	// what the query actually cost.
	query, _ := triple.ParseTriple("('OBSW001', Fun:block_cmd, CmdType:start-up)")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := idx.Searcher(semtree.WithK(5)).Search(ctx, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k-nearest to %s:\n", query)
	for _, m := range res.Matches {
		fmt.Printf("  %.4f  %s\n", m.Dist, m.Triple)
	}
	qs := res.Stats
	fmt.Printf("\nquery cost: %d nodes, %d buckets, %d distance evals on %d partitions, %d messages in %v (%s protocol)\n",
		qs.NodesVisited, qs.BucketsScanned, qs.DistanceEvals, qs.Partitions, qs.FabricMessages, qs.Wall.Round(time.Microsecond), qs.Protocol)

	fs := fabric.Stats()
	fmt.Printf("fabric traffic: %d messages, %d bytes over TCP\n", fs.Messages, fs.Bytes)
}
