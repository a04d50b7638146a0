// Document search: semantic retrieval of *documents* (the paper's
// title use case). A corpus of requirement documents is indexed; a
// query-by-example triple retrieves semantically close triples, which
// are mapped back through their provenance and ranked per document.
// The index is then saved and reloaded — the restart path — and the
// reloaded index must answer the same query identically.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	semtree "semtree"
	"semtree/internal/synth"
	"semtree/internal/triple"
)

func main() {
	gen := synth.New(synth.Config{Seed: 3, Docs: 30, SectionsPerDoc: 8}, nil)
	bundle := gen.Corpus()
	corpus := bundle.Corpus
	fmt.Printf("corpus: %d documents, %d triples\n\n", len(corpus.Docs), corpus.NumTriples())

	idx, err := semtree.Build(corpus.Store, semtree.Options{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	// Query by example: "which documents talk about commanding the
	// start-up of on-board software components?"
	query, _ := triple.ParseTriple("('OBSW001', Fun:execute_cmd, CmdType:start-up)")
	fmt.Printf("query by example: %s\n\n", query)

	res, err := idx.Searcher(semtree.WithK(25)).Search(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}
	matches := res.Matches
	ids := make([]triple.ID, len(matches))
	for i, m := range matches {
		ids[i] = m.ID
	}

	fmt.Println("top documents:")
	for rank, ds := range corpus.RankDocuments(ids) {
		if rank >= 5 {
			break
		}
		fmt.Printf("%d. %s (%d matching triples)\n", rank+1, ds.DocID, ds.Matches)
		for i, id := range ds.Triples {
			if i >= 2 {
				break
			}
			_, sec, err := corpus.SectionOf(id)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("     [%s] %s\n", sec.ID, sec.Text)
		}
	}

	fmt.Println("\nclosest triples:")
	for i, m := range matches {
		if i >= 8 {
			break
		}
		fmt.Printf("  %.4f  %s\n", m.Dist, m.Triple)
	}

	// Restart path: Save captures the embedding and the distributed
	// tree's exact partition layout; Load restores it without
	// re-embedding or re-ingesting, and answers byte-identically. In a
	// real service the buffer is a file next to the corpus.
	var snapshot bytes.Buffer
	if err := semtree.Save(&snapshot, idx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsaved index snapshot: %d bytes\n", snapshot.Len())
	reloaded, err := semtree.Load(&snapshot, semtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer reloaded.Close()
	again, err := reloaded.Searcher(semtree.WithK(25)).Search(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}
	for i, m := range again.Matches {
		if m.ID != matches[i].ID || m.Dist != matches[i].Dist {
			log.Fatalf("restored index diverged at rank %d", i)
		}
	}
	fmt.Println("reloaded: same answers after restart, down to the distance bits")
}
