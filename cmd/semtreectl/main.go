// Command semtreectl builds a SemTree index over a triples file and
// answers ad-hoc queries from the command line.
//
// Usage:
//
//	semtreectl -triples corpus.txt -query "('OBSW001', Fun:block_cmd, CmdType:start-up)" -k 5
//	semtreectl -triples corpus.txt -query "(...)" -range 0.25
//	semtreectl -triples corpus.txt -check "('OBSW001', Fun:accept_cmd, CmdType:start-up)" -k 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	semtree "semtree"
	"semtree/internal/reqcheck"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

func main() {
	var (
		triplesPath = flag.String("triples", "", "path to a triples file (one Turtle-like triple per line)")
		query       = flag.String("query", "", "query triple for k-nearest / range search")
		pattern     = flag.String("pattern", "", "pattern query, '?' for wildcards: \"(?, Fun:accept_cmd, ?)\"")
		check       = flag.String("check", "", "requirement triple to check for inconsistencies")
		k           = flag.Int("k", 5, "result count for k-nearest")
		rangeD      = flag.Float64("range", 0, "range radius (range query with -query, bound-position radius with -pattern)")
		measure     = flag.String("measure", "", "concept measure (default wupalmer)")
		partitions  = flag.Int("partitions", 1, "number of index partitions")
		seed        = flag.Int64("seed", 1, "FastMap seed")
		vocabPaths  multiFlag
	)
	flag.Var(&vocabPaths, "vocab", "extra vocabulary file (repeatable; see internal/vocab/io.go format)")
	flag.Parse()
	if *triplesPath == "" {
		fatal(fmt.Errorf("-triples is required"))
	}
	modes := 0
	for _, m := range []string{*query, *check, *pattern} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		fatal(fmt.Errorf("exactly one of -query, -pattern or -check is required"))
	}

	reg := vocab.DefaultRegistry()
	for _, path := range vocabPaths {
		vf, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		v, err := vocab.ParseVocabulary(vf)
		vf.Close()
		if err != nil {
			fatal(err)
		}
		if err := reg.Register(v); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded vocabulary %s (%d concepts)\n", v.Prefix(), v.Len())
	}

	f, err := os.Open(*triplesPath)
	if err != nil {
		fatal(err)
	}
	store := triple.NewStore()
	_, _, err = store.AddFrom(f, triple.Provenance{Doc: *triplesPath})
	f.Close()
	if err != nil {
		fatal(err)
	}

	opts := semtree.Options{Registry: reg, Measure: *measure, Seed: *seed, MaxPartitions: *partitions}
	if *partitions > 1 {
		opts.PartitionCapacity = store.Len() / *partitions
	}
	idx, err := semtree.Build(store, opts)
	if err != nil {
		fatal(err)
	}
	defer idx.Close()
	fmt.Printf("indexed %d triples in %d partition(s)\n", idx.Len(), idx.PartitionCount())

	switch {
	case *pattern != "":
		pat, err := semtree.ParsePattern(*pattern)
		if err != nil {
			fatal(err)
		}
		matches, err := idx.MatchPattern(context.Background(), pat, *rangeD, *k)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pattern %s (radius %.2f, limit %d):\n", pat, *rangeD, *k)
		for _, m := range matches {
			fmt.Printf("  %.4f  %s\n", m.Dist, m.Triple)
		}
	case *check != "":
		req, err := triple.ParseTriple(*check)
		if err != nil {
			fatal(err)
		}
		checker := reqcheck.NewChecker(idx, reg)
		cands, ok, err := checker.Candidates(context.Background(), req, *k)
		if err != nil {
			fatal(err)
		}
		if !ok {
			fmt.Println("predicate has no antinomy in the vocabulary: nothing to check")
			return
		}
		confirmed := checker.Confirmed(req, cands, store)
		fmt.Printf("candidates (K=%d): %d, confirmed inconsistencies: %d\n", *k, len(cands), len(confirmed))
		for _, id := range confirmed {
			e, _ := store.Get(id)
			fmt.Printf("  CONFLICT %s\n", e.Triple)
		}
	default:
		q, err := triple.ParseTriple(*query)
		if err != nil {
			fatal(err)
		}
		opt := semtree.WithK(*k)
		if *rangeD > 0 {
			opt = semtree.WithRadius(*rangeD)
		}
		res, err := idx.Searcher(opt).Search(context.Background(), q)
		if err != nil {
			fatal(err)
		}
		for _, m := range res.Matches {
			fmt.Printf("  %.4f  %s\n", m.Dist, m.Triple)
		}
	}
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "semtreectl:", err)
	os.Exit(1)
}
