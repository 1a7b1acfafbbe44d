package lint

import (
	"go/ast"
	"go/token"
)

// Lazyinit flags the check-then-assign lazy-initialization pattern on
// shared state without a synchronization guard — the PR-1 rex.Regex
// bug class, where a regex cache field was populated under a bare nil
// check and raced as soon as the worker pool arrived:
//
//	if r.compiled == nil {
//		r.compiled = compile(r)   // two goroutines both get here
//	}
//
// Both directions are recognized: `if x.f == nil { ... x.f = ... }`
// and the early-return form `if x.f != nil { return ... }` followed by
// an assignment to x.f. The base of the field chain must be a receiver
// or parameter (state that escapes the function); locals constructed
// inside the function cannot race and are not flagged.
//
// A function showing any synchronization discipline — calls to Lock,
// RLock, (sync.Once).Do, LoadOrStore, CompareAndSwap, or Swap — is
// trusted and skipped; the analyzer looks for *unguarded* caches, not
// for lock-correctness.
func Lazyinit() *Analyzer {
	return &Analyzer{
		Name: "lazyinit",
		Doc:  "nil-check-then-assign lazy init of shared state without a lock or sync.Once",
		Run:  runLazyinit,
	}
}

func runLazyinit(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		forEachFunc(f, func(fn funcNode) {
			checkLazyinitFunc(pass, fn)
		})
	}
}

func checkLazyinitFunc(pass *Pass, fn funcNode) {
	if callsMethodNamed(fn.body, "Lock", "RLock", "Do", "LoadOrStore", "CompareAndSwap", "Swap") {
		return
	}
	shared := paramNames(fn.params)
	if fn.recv != "" {
		shared[fn.recv] = true
	}
	walkFuncBody(fn.body, func(n ast.Node) {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return
		}
		for i, stmt := range block.List {
			ifStmt, ok := stmt.(*ast.IfStmt)
			if !ok {
				continue
			}
			field, op := nilCheckedField(pass, ifStmt.Cond, shared)
			if field == "" {
				continue
			}
			switch op {
			case token.EQL:
				if assignsTo(pass, ifStmt.Body, field) {
					pass.Reportf(ifStmt, "lazy init of %s is guarded only by a nil check; concurrent callers race — use sync.Once or a mutex", field)
				}
			case token.NEQ:
				if !returnsFrom(ifStmt.Body) {
					continue
				}
				for _, later := range block.List[i+1:] {
					if assignsTo(pass, later, field) {
						pass.Reportf(ifStmt, "lazy init of %s (early-return nil check then assign) races under concurrent use — use sync.Once or a mutex", field)
						break
					}
				}
			}
		}
	})
}

// nilCheckedField matches `x.f == nil` / `x.f != nil` (either operand
// order) where the chain's base identifier is shared (receiver or
// parameter). It returns the rendered field expression and the
// comparison operator.
func nilCheckedField(pass *Pass, cond ast.Expr, shared map[string]bool) (string, token.Token) {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return "", token.ILLEGAL
	}
	expr := bin.X
	other := bin.Y
	if isNilExpr(pass, expr) {
		expr, other = other, expr
	}
	if !isNilExpr(pass, other) {
		return "", token.ILLEGAL
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", token.ILLEGAL
	}
	base := baseIdent(sel)
	if base == nil || !shared[base.Name] {
		return "", token.ILLEGAL
	}
	return pass.ExprString(sel), bin.Op
}

// assignsTo reports whether any assignment under n (nested
// statements included) targets the rendered field expression.
func assignsTo(pass *Pass, n ast.Node, field string) bool {
	found := false
	ast.Inspect(n, func(sub ast.Node) bool {
		if found {
			return false
		}
		if stmtAssignsTo(pass, sub, field) {
			found = true
			return false
		}
		return true
	})
	return found
}

func stmtAssignsTo(pass *Pass, n ast.Node, field string) bool {
	assign, ok := n.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range assign.Lhs {
		if pass.ExprString(lhs) == field {
			return true
		}
	}
	return false
}

func returnsFrom(body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		if _, ok := stmt.(*ast.ReturnStmt); ok {
			return true
		}
	}
	return false
}
