package semtree

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFaultSeamStaysInTests: the fault-injecting fabric wrapper
// (internal/cluster/clustertest) is for tests only. Every non-test Go
// file in the repository — the benchmark module's included, fixtures
// under testdata excepted — is parsed, and none may import it, so no
// fault can ship in the engine.
func TestFaultSeamStaysInTests(t *testing.T) {
	const seam = "semtree/internal/cluster/clustertest"
	fset := token.NewFileSet()
	parsed := 0
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		parsed++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == seam {
				t.Errorf("%s imports %s: the fault seam belongs in _test.go files", path, seam)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 100 {
		t.Fatalf("parsed %d non-test files: the walk missed the module", parsed)
	}
}
