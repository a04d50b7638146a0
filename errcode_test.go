package semtree

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// isErrName reports whether a declaration name follows the sentinel
// convention: "Err" followed by an uppercase letter (ErrFoo), which
// excludes unrelated names like ErrorCode.
func isErrName(name string) bool {
	return strings.HasPrefix(name, "Err") && len(name) > 3 &&
		name[3] >= 'A' && name[3] <= 'Z'
}

// collectExportedErrDecls parses every non-test file of a package
// directory and returns the names of exported Err* declarations — both
// sentinel vars (var ErrFoo = …) and error types (type ErrBar struct).
// The registry-completeness tests use it so a sentinel added to the
// source without a wire code fails the build.
func collectExportedErrDecls(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
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
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if ast.IsExported(n.Name) && isErrName(n.Name) {
								names = append(names, n.Name)
							}
						}
					case *ast.TypeSpec:
						if ast.IsExported(sp.Name.Name) && isErrName(sp.Name.Name) {
							names = append(names, sp.Name.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// TestErrorCodeRegistryComplete: every exported Err* declaration of
// the facade must carry a wire code. The instances table below is the
// bridge from source-level names (found by parsing the package) to
// runtime values; adding a sentinel to the source without extending
// the table — or adding it to the table without registering a code —
// fails here, so the wire contract can never silently fall behind the
// API.
func TestErrorCodeRegistryComplete(t *testing.T) {
	instances := map[string]error{
		"ErrAdmissionRejected": ErrAdmissionRejected,
		"ErrDeadlineBudget":    ErrDeadlineBudget,
		"ErrQuotaExhausted":    ErrQuotaExhausted,
		"ErrSnapshotCorrupt":   ErrSnapshotCorrupt,
		"ErrRequestRefused":    ErrRequestRefused,
		"ErrUnindexedID":       ErrUnindexedID{ID: 42},
	}
	names := collectExportedErrDecls(t, ".")
	if len(names) == 0 {
		t.Fatal("found no exported Err* declarations — parser broken?")
	}
	for _, name := range names {
		inst, ok := instances[name]
		if !ok {
			t.Errorf("exported sentinel %s has no entry in this test's instance table: add it and assign it a wire code", name)
			continue
		}
		if c := CodeOf(inst); c == CodeUnknown {
			t.Errorf("exported sentinel %s has no registered wire code (CodeOf returned CodeUnknown)", name)
		}
	}
}

// TestErrorCodeRoundTrip: encode→decode must preserve errors.Is for
// every registered sentinel, errors.As (with the ID) for the typed
// ErrUnindexedID, and the message for unregistered errors.
func TestErrorCodeRoundTrip(t *testing.T) {
	sentinels := []error{
		ErrAdmissionRejected,
		ErrDeadlineBudget,
		ErrQuotaExhausted,
		ErrSnapshotCorrupt,
		ErrRequestRefused,
		context.Canceled,
		context.DeadlineExceeded,
	}
	for _, s := range sentinels {
		code := CodeOf(s)
		if code == CodeUnknown {
			t.Fatalf("%v: no code", s)
		}
		dec := DecodeError(code, s.Error(), ErrorDetail(s))
		if !errors.Is(dec, s) {
			t.Errorf("%v: decoded error does not match the sentinel under errors.Is", s)
		}
		if got, want := dec.Error(), s.Error(); got != want {
			t.Errorf("%v: message changed across the wire: %q", s, got)
		}
		// A wrapped sentinel must decode back to the sentinel too, with
		// the wrapped message preserved.
		wrapped := fmt.Errorf("while serving request 7: %w", s)
		dec = DecodeError(CodeOf(wrapped), wrapped.Error(), 0)
		if got, want := dec.Error(), wrapped.Error(); !errors.Is(dec, s) || got != want {
			t.Errorf("%v: wrapped round trip lost the sentinel or the message (got %v)", s, dec)
		}
	}

	// The typed sentinel round-trips through the detail payload.
	orig := ErrUnindexedID{ID: 1234}
	dec := DecodeError(CodeOf(orig), orig.Error(), ErrorDetail(orig))
	var unindexed ErrUnindexedID
	if !errors.As(dec, &unindexed) || unindexed.ID != 1234 {
		t.Fatalf("ErrUnindexedID did not round-trip: %v", dec)
	}
	if got, want := dec.Error(), orig.Error(); got != want {
		t.Fatalf("ErrUnindexedID message changed: %q vs %q", got, want)
	}

	// Unregistered errors survive as CodeUnknown with the message intact.
	plain := errors.New("some backend hiccup")
	if c := CodeOf(plain); c != CodeUnknown {
		t.Fatalf("unregistered error got code %d", c)
	}
	dec = DecodeError(CodeUnknown, plain.Error(), 0)
	if got, want := dec.Error(), plain.Error(); got != want {
		t.Fatalf("CodeUnknown lost the message: %q", got)
	}
}

// TestRegisterErrorCodeGuards: the registry refuses collisions — a
// reused code or sentinel would silently corrupt the wire contract.
func TestRegisterErrorCodeGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero code", func() { RegisterErrorCode(CodeUnknown, errors.New("x")) })
	mustPanic("nil sentinel", func() { RegisterErrorCode(63, nil) })
	mustPanic("dup code", func() { RegisterErrorCode(CodeQuotaExhausted, errors.New("x")) })
	mustPanic("dup sentinel", func() { RegisterErrorCode(63, ErrQuotaExhausted) })
}
