package semtree

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testName matches a Go test function's name as a document cites it:
// a Test, Fuzz, Benchmark or Example function, its subtest path left
// off.
var testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*`)

// TestDocsCiteLiveTests: a test ARCHITECTURE.md or README.md names in
// backticks is one some _test.go file in the repository — the benchmark
// module's included, fixtures under testdata excepted — declares, so
// the documents never point a reader at a test that was deleted or
// renamed. CHANGES.md and ROADMAP.md are history and are not read.
func TestDocsCiteLiveTests(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !declared["TestDocsCiteLiveTests"] {
		t.Fatal("the walk missed this file")
	}
	spans := regexp.MustCompile("`[^`\n]+`")
	for _, doc := range []string{"ARCHITECTURE.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range spans.FindAllString(string(b), -1) {
			for _, name := range testName.FindAllString(span, -1) {
				if !declared[name] {
					t.Errorf("%s cites %s, which no _test.go file declares", doc, name)
				}
			}
		}
	}
}
