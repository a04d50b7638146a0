package serve

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"semtree"
)

// TestServeErrorCodesComplete mirrors the facade's registry-
// completeness test over the serving tier: every exported Err*
// sentinel this package declares must carry a wire code in the 64+
// range, so a new protocol-level sentinel cannot ship without crossing
// the wire typed.
func TestServeErrorCodesComplete(t *testing.T) {
	instances := map[string]error{
		"ErrProtocol": ErrProtocol,
		"ErrAuth":     ErrAuth,
		"ErrDraining": ErrDraining,
		"ErrVersion":  ErrVersion,
		"ErrNotAdmin": ErrNotAdmin,
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var found int
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, n := range vs.Names {
						if !ast.IsExported(n.Name) || !strings.HasPrefix(n.Name, "Err") {
							continue
						}
						found++
						inst, ok := instances[n.Name]
						if !ok {
							t.Errorf("exported sentinel %s has no entry in this test's instance table", n.Name)
							continue
						}
						c := semtree.CodeOf(inst)
						if c == semtree.CodeUnknown {
							t.Errorf("sentinel %s has no registered wire code", n.Name)
						}
						if c < 64 {
							t.Errorf("sentinel %s has code %d, below the serving tier's 64+ range", n.Name, c)
						}
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("found no exported Err* declarations — parser broken?")
	}
}

// TestServeErrorRoundTrip: each serve sentinel crosses the wire and
// decodes back to itself under errors.Is, exactly like the facade's.
func TestServeErrorRoundTrip(t *testing.T) {
	for _, s := range []error{ErrProtocol, ErrAuth, ErrDraining, ErrVersion, ErrNotAdmin} {
		code, msg, detail := encodeError(s)
		dec := semtree.DecodeError(code, msg, detail)
		if got, want := dec.Error(), s.Error(); !errors.Is(dec, s) || got != want {
			t.Errorf("%v: wire round trip lost the sentinel (got %v)", s, dec)
		}
	}
	// Wrapped forms keep the message and the sentinel.
	werr := fmt.Errorf("while serving request 12: %w", ErrDraining)
	code, msg, detail := encodeError(werr)
	dec := semtree.DecodeError(code, msg, detail)
	if got, want := dec.Error(), werr.Error(); !errors.Is(dec, ErrDraining) || got != want {
		t.Errorf("wrapped draining error round trip: got %v", dec)
	}
}
