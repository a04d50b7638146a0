package analysis

import (
	"go/ast"
	"go/token"
)

// GuardExact protects the exact-pruning invariant from PR 5: pruning
// decisions in search/dispatch paths go through the region guard
// (BoxMinSq / guardSq / childBoxMinSq), which ranks subtrees by true
// min-distance to the query box. Raw splitting-plane arithmetic
// (q[dim] - splitVal) is the PR-1-era lower bound that under-prunes in
// high dimensions and over-prunes after rebalances; it is only legal
// inside the guard implementations themselves or in a function that
// hands it to one. The paper's plane-only walk is a test reference
// (internal/kdtree/plane_test.go), and test files are not checked.
var GuardExact = &Analyzer{
	Name: "guardexact",
	Doc: "splitting-plane distance arithmetic in internal/core and internal/kdtree must " +
		"live inside the region guard (BoxMinSq/guardSq/childBoxMinSq)",
	Run: runGuardExact,
}

// guardFuncs are the blessed homes of plane arithmetic: the guard
// kernels themselves, all in internal/kdtree/box.go since the tree
// kernels merged (internal/core keeps none of its own).
var guardFuncs = map[string]bool{
	"guardSq":       true,
	"childBoxMinSq": true,
	"BoxMinSq":      true,
}

func runGuardExact(pass *Pass) error {
	if !pkgPathIs(pass.Pkg, "core") && !pkgPathIs(pass.Pkg, "kdtree") {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			if guardFuncs[fd.Name.Name] {
				continue // the guard implementation itself
			}
			if funcTouchesGuard(pass, fd) {
				continue // routes its pruning through the guard
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || bin.Op != token.SUB {
					return true
				}
				if isSplitValRef(bin.X) || isSplitValRef(bin.Y) {
					pass.Reportf(bin.OpPos,
						"raw splitting-plane arithmetic outside the region guard; prune via BoxMinSq/guardSq")
				}
				return true
			})
		}
	}
	return nil
}

// funcTouchesGuard reports whether fd calls one of the guard kernels,
// which marks it guard-aware: incidental plane arithmetic there (e.g.
// computing the plane distance to hand to guardSq) is intended.
func funcTouchesGuard(pass *Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(pass.TypesInfo, call); fn != nil && guardFuncs[fn.Name()] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isSplitValRef reports whether e is a selector or identifier naming
// the splitting-plane value field (splitVal / SplitVal).
func isSplitValRef(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name == "splitVal" || e.Sel.Name == "SplitVal"
	case *ast.Ident:
		return e.Name == "splitVal" || e.Name == "SplitVal"
	}
	return false
}
