package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFirst enforces the context-propagation invariant from PR 2: any
// function that accepts a context.Context takes it as the first
// parameter, and library packages never mint their own root contexts
// with context.Background()/context.TODO() — roots belong to package
// main and to tests. Code that runs detached by documented contract
// (e.g. the tree's inserts and maintenance, which run to completion
// once started) carries a justified //semtree:allow ctxfirst directive
// instead.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc: "context.Context parameters come first, and library packages do not call " +
		"context.Background or context.TODO; cancellation roots belong to main and tests",
	Run: runCtxFirst,
}

func isContextType(t types.Type) bool {
	return t != nil && isNamedType(t, "context", "Context")
}

func runCtxFirst(pass *Pass) error {
	isMain := pass.Pkg != nil && pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if pass.InTestFile(n.Pos()) {
					return true
				}
				checkCtxPosition(pass, n.Type)
			case *ast.FuncLit:
				if pass.InTestFile(n.Pos()) {
					return true
				}
				checkCtxPosition(pass, n.Type)
			case *ast.CallExpr:
				if isMain || pass.InTestFile(n.Pos()) {
					return true
				}
				if calleeIsPkgFunc(pass.TypesInfo, n, "context", "Background", "TODO") {
					fn := calleeFunc(pass.TypesInfo, n)
					pass.Reportf(n.Pos(),
						"context.%s in library code: thread the caller's context instead (roots belong to main and tests)",
						fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// checkCtxPosition reports a context.Context parameter that is not the
// first parameter. The receiver of a method does not count as a
// parameter; variadic and grouped parameter lists are handled.
func checkCtxPosition(pass *Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		t := pass.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1 // unnamed parameter
		}
		if isContextType(t) && idx != 0 {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter")
		}
		idx += n
	}
}
