package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockedCall enforces the deadlock/tail-latency invariant made real by
// the TCP fabric: no synchronous fabric traffic (Fabric.Call,
// cluster.CallRetry) and no channel send may be reachable while a
// partition/bucket mutex is held. A blocked remote call under a held
// lock serializes every other request on the partition and, in the
// worst case (A waits on B while B waits on A's lock), deadlocks the
// pair. Handlers that are safe by construction — e.g. traversals whose
// remote hops only ever descend the partition DAG — carry a justified
// //semtree:allow lockedcall directive at the call site.
//
// The analysis is intraprocedural over lock regions with a
// package-local "reaches the fabric" closure: a call to a same-package
// function that (transitively) performs fabric traffic is flagged just
// like a direct Fabric.Call. Calls launched with `go` do not block the
// caller and are excluded.
var LockedCall = &Analyzer{
	Name: "lockedcall",
	Doc: "no Fabric.Call, cluster.CallRetry, or channel send may be reachable " +
		"while a sync.Mutex/RWMutex is held",
	Run: runLockedCall,
}

func runLockedCall(pass *Pass) error {
	lc := &lockedCallPass{
		Pass:     pass,
		decls:    map[*types.Func]*ast.FuncDecl{},
		reaching: map[*types.Func]bool{},
	}
	lc.buildReachingSet()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			lc.walkStmts(fd.Body.List, map[string]bool{})
		}
	}
	return nil
}

type lockedCallPass struct {
	*Pass
	decls    map[*types.Func]*ast.FuncDecl
	reaching map[*types.Func]bool // transitively performs fabric traffic
}

// buildReachingSet computes the package-local closure of functions that
// perform fabric traffic, directly or through same-package callees.
func (lc *lockedCallPass) buildReachingSet() {
	type funcInfo struct {
		direct  bool
		callees []*types.Func
	}
	infos := map[*types.Func]*funcInfo{}

	for _, file := range lc.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := lc.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			lc.decls[obj] = fd
			fi := &funcInfo{}
			infos[obj] = fi
			inspectSync(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if lc.isFabricCall(call) {
					fi.direct = true
					return true
				}
				if callee := calleeFunc(lc.TypesInfo, call); callee != nil &&
					callee.Pkg() == lc.Pkg {
					fi.callees = append(fi.callees, callee)
				}
				return true
			})
		}
	}

	// Fixpoint over the call graph.
	for changed := true; changed; {
		changed = false
		for obj, fi := range infos {
			if lc.reaching[obj] {
				continue
			}
			hit := fi.direct
			for _, callee := range fi.callees {
				if lc.reaching[callee] {
					hit = true
					break
				}
			}
			if hit {
				lc.reaching[obj] = true
				changed = true
			}
		}
	}
}

// isFabricCall reports whether call is direct fabric traffic: a Call
// method on any type from the cluster package (the Fabric interface or
// a concrete fabric), or the package-level retry helper
// cluster.CallRetry.
func (lc *lockedCallPass) isFabricCall(call *ast.CallExpr) bool {
	if calleeIsPkgFunc(lc.TypesInfo, call, "cluster", "CallRetry") {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Call" {
		return false
	}
	named := namedOf(lc.TypeOf(sel.X))
	return named != nil && named.Obj().Pkg() != nil && pkgPathIs(named.Obj().Pkg(), "cluster")
}

// walkStmts walks a statement list in textual order, tracking the set
// of held mutexes. Branch bodies get a copy of the set, so a branch
// that releases-and-returns does not unlock the fall-through path.
// defer mu.Unlock() keeps the region open to the end of the function,
// which is exactly the conservative reading we want.
func (lc *lockedCallPass) walkStmts(stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		lc.walkStmt(stmt, held)
	}
}

func (lc *lockedCallPass) walkStmt(stmt ast.Stmt, held map[string]bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, op, ok := lockOp(lc.Pass, s.X); ok {
			if op == "Lock" || op == "RLock" {
				held[key] = true
			} else {
				delete(held, key)
			}
			return
		}
		lc.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() does not end the region; other deferred
		// work runs after the function body and is not checked here.
	case *ast.GoStmt:
		// Asynchronous: does not block under the lock.
	case *ast.BlockStmt:
		lc.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			lc.walkStmt(s.Init, held)
		}
		lc.checkExpr(s.Cond, held)
		lc.walkStmts(s.Body.List, cloneSet(held))
		if s.Else != nil {
			lc.walkStmt(s.Else, cloneSet(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lc.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			lc.checkExpr(s.Cond, held)
		}
		lc.walkStmts(s.Body.List, cloneSet(held))
	case *ast.RangeStmt:
		lc.checkExpr(s.X, held)
		lc.walkStmts(s.Body.List, cloneSet(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			lc.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			lc.checkExpr(s.Tag, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				lc.walkStmts(cc.Body, cloneSet(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				lc.walkStmts(cc.Body, cloneSet(held))
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				branch := cloneSet(held)
				if cc.Comm != nil {
					lc.walkStmt(cc.Comm, branch)
				}
				lc.walkStmts(cc.Body, branch)
			}
		}
	case *ast.LabeledStmt:
		lc.walkStmt(s.Stmt, held)
	case *ast.SendStmt:
		if len(held) > 0 {
			lc.Reportf(s.Arrow, "channel send while %s held; release the mutex first", heldList(held))
		}
		lc.checkExpr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lc.checkExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lc.checkExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						lc.checkExpr(e, held)
					}
				}
			}
		}
	}
}

// checkExpr reports fabric traffic and channel sends inside e while any
// mutex is held. Function literals are treated as executing inline —
// conservative for closures that are stored for later, correct for the
// common immediately-invoked and callback forms.
func (lc *lockedCallPass) checkExpr(e ast.Expr, held map[string]bool) {
	if len(held) == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lc.isFabricCall(call) {
			lc.Reportf(call.Pos(), "fabric %s while %s held; a blocked remote call under a partition lock serializes (or deadlocks) the partition",
				callName(call), heldList(held))
			return true
		}
		if callee := calleeFunc(lc.TypesInfo, call); callee != nil && lc.reaching[callee] {
			lc.Reportf(call.Pos(), "call to %s, which reaches the fabric, while %s held",
				callee.Name(), heldList(held))
		}
		return true
	})
}

// lockOp recognizes mu.Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// sync.RWMutex and returns a stable key for the mutex expression.
func lockOp(pass *Pass, e ast.Expr) (key, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	t := pass.TypeOf(sel.X)
	if !isNamedType(t, "sync", "Mutex") && !isNamedType(t, "sync", "RWMutex") {
		return "", "", false
	}
	return exprKey(sel.X), sel.Sel.Name, true
}

// exprKey renders a mutex expression to a stable string key.
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprKey(e.X) + "[...]"
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.CallExpr:
		return exprKey(e.Fun) + "()"
	default:
		return fmt.Sprintf("%T", e)
	}
}

func cloneSet(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func heldList(held map[string]bool) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return "call"
}

// inspectSync is ast.Inspect minus go statements: work launched with
// `go` does not block the launching goroutine.
func inspectSync(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, isGo := n.(*ast.GoStmt); isGo {
			return false
		}
		return f(n)
	})
}
