// Command semtree-gen generates synthetic requirement corpora: either
// document text (one file per document, NLP-extractable) or a flat
// triples file in the Turtle-like notation.
//
// Usage:
//
//	semtree-gen -docs 100 -out corpus/           # document text
//	semtree-gen -triples 100000 > triples.txt    # flat triples
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"semtree/internal/synth"
	"semtree/internal/triple"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "semtree-gen:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments and standard output injected.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("semtree-gen", flag.ExitOnError)
	var (
		docs     = fs.Int("docs", 50, "number of documents")
		sections = fs.Int("sections", 10, "requirements per document")
		rate     = fs.Float64("inconsistencies", 0.15, "fraction of requirements planting a conflict")
		seed     = fs.Int64("seed", 1, "generator seed")
		out      = fs.String("out", "", "output directory for document text (stdout when empty)")
		triples  = fs.Int("triples", 0, "generate a flat triples file instead (count)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	gen := synth.New(synth.Config{
		Seed:              *seed,
		Docs:              *docs,
		SectionsPerDoc:    *sections,
		InconsistencyRate: *rate,
	}, nil)

	if *triples > 0 {
		return triple.WriteAll(stdout, gen.Triples(*triples))
	}

	bundle := gen.Corpus()
	if len(bundle.Skipped) > 0 {
		return fmt.Errorf("%d generated sentences failed extraction", len(bundle.Skipped))
	}
	if *out == "" {
		for _, d := range bundle.Corpus.Docs {
			fmt.Fprintf(stdout, "# %s — %s\n", d.ID, d.Title)
			for _, s := range d.Sections {
				fmt.Fprintf(stdout, "[%s] %s\n", s.ID, s.Text)
			}
			fmt.Fprintln(stdout)
		}
	} else {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		for _, d := range bundle.Corpus.Docs {
			var b []byte
			b = append(b, fmt.Sprintf("# %s\n", d.Title)...)
			for _, s := range d.Sections {
				b = append(b, fmt.Sprintf("[%s] %s\n", s.ID, s.Text)...)
			}
			path := filepath.Join(*out, d.ID+".txt")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "wrote %d documents to %s (%d triples, %d planted inconsistencies)\n",
			len(bundle.Corpus.Docs), *out, bundle.Corpus.NumTriples(), len(bundle.Planted))
	}
	return nil
}
