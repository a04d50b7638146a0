package analysis

import (
	"go/ast"
	"path/filepath"
)

// BoundaryOnce enforces the "sort/sqrt exactly once at the client
// boundary" invariant from PR 1: inside internal/core and
// internal/kdtree, candidate distances travel squared and result sets
// travel unsorted; the single √ and the single sort happen in the
// allowlisted client-boundary files just before results are handed to
// the caller. Any other math.Sqrt or sort call in those packages is
// either a perf bug (per-candidate sqrt in a hot loop) or a correctness
// trap (double-sorting merged partial results). Construction-time sorts
// (tree builds, median splits) are legal but must say so with a
// //semtree:allow boundaryonce directive.
var BoundaryOnce = &Analyzer{
	Name: "boundaryonce",
	Doc: "math.Sqrt and sort.* are banned in internal/core and internal/kdtree outside " +
		"the allowlisted client-boundary files; distances travel squared, results unsorted",
	Run: runBoundaryOnce,
}

// boundaryFiles lists the files where the boundary conversion is
// allowed to live, per package (matched by import-path suffix):
// core.Tree's client methods, and kdtree.Tree's (the traversal kernel
// both trees run on lives next door in kdtree/traverse.go, and is
// checked).
var boundaryFiles = map[string][]string{
	"core":   {"tree.go"},
	"kdtree": {"search.go"},
}

func runBoundaryOnce(pass *Pass) error {
	var allow []string
	switch {
	case pkgPathIs(pass.Pkg, "core"):
		allow = boundaryFiles["core"]
	case pkgPathIs(pass.Pkg, "kdtree"):
		allow = boundaryFiles["kdtree"]
	default:
		return nil
	}
	for _, file := range pass.Files {
		name := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if contains(allow, name) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || pass.InTestFile(call.Pos()) {
				return true
			}
			info := pass.TypesInfo
			switch {
			case calleeIsPkgFunc(info, call, "math", "Sqrt"):
				pass.Reportf(call.Pos(),
					"math.Sqrt outside the client boundary (%s); distances travel squared until the boundary converts them once", boundaryName(allow))
			case calleeIsPkgFunc(info, call,
				"sort", "Slice", "SliceStable", "Sort", "Stable", "Float64s", "Ints", "Strings"),
				calleeIsPkgFunc(info, call, "slices", "Sort", "SortFunc", "SortStableFunc"):
				pass.Reportf(call.Pos(),
					"sorting outside the client boundary (%s); result sets travel unsorted and are sorted exactly once", boundaryName(allow))
			}
			return true
		})
	}
	return nil
}

func boundaryName(allow []string) string {
	if len(allow) == 1 {
		return allow[0]
	}
	out := allow[0]
	for _, f := range allow[1:] {
		out += ", " + f
	}
	return out
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
