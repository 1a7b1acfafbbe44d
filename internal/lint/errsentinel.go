package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Errsentinel flags error comparisons that break under wrapping: the
// snapshot reader's typed sentinels (geoloc.ErrSnapshotTruncated and
// friends) are documented as "distinguishable with errors.Is", which
// is only true if every caller actually uses errors.Is. A plain
// `err == ErrSnapshotChecksum` silently stops matching the moment any
// layer wraps the error with fmt.Errorf("...: %w", err) — corruption
// handling downgrades to the generic path and nobody notices.
//
// Flagged shapes:
//
//   - err == X / err != X where both operands are error-typed and
//     neither is nil (nil checks are the sanctioned use of ==)
//   - switch err { case ErrA, ErrB: } on an error-typed tag — the
//     same identity comparison in clause form
//   - err.Error() compared with == / !=, or fed to strings.Contains /
//     HasPrefix / HasSuffix / EqualFold — matching on rendered text is
//     the least stable comparison of all
func Errsentinel() *Analyzer {
	return &Analyzer{
		Name: "errsentinel",
		Doc:  "error compared with ==/!= or by Error() text instead of errors.Is",
		Run:  runErrsentinel,
	}
}

func runErrsentinel(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkErrComparison(pass, n)
			case *ast.SwitchStmt:
				if n.Tag != nil && isErrorExpr(pass, n.Tag) {
					pass.Reportf(n.Tag, "switch on error value %s compares with ==; use if/else with errors.Is",
						pass.ExprString(n.Tag))
				}
			case *ast.CallExpr:
				checkErrStringMatch(pass, n)
			}
			return true
		})
	}
}

func checkErrComparison(pass *Pass, e *ast.BinaryExpr) {
	if e.Op != token.EQL && e.Op != token.NEQ {
		return
	}
	// Text matching: err.Error() on either side of ==/!=.
	for _, side := range []ast.Expr{e.X, e.Y} {
		if isErrorTextCall(pass, side) {
			pass.Reportf(e, "comparing err.Error() text with %s; compare the error itself with errors.Is", e.Op)
			return
		}
	}
	if !isErrorExpr(pass, e.X) || !isErrorExpr(pass, e.Y) {
		return
	}
	// Identity against nil is the one sanctioned use of == on errors.
	if isNilExpr(pass, e.X) || isNilExpr(pass, e.Y) {
		return
	}
	pass.Reportf(e, "error compared with %s breaks under wrapping; use errors.Is(%s, %s)",
		e.Op, pass.ExprString(e.X), pass.ExprString(e.Y))
}

// checkErrStringMatch flags strings.Contains/HasPrefix/HasSuffix/
// EqualFold calls whose argument is err.Error() — substring-matching
// an error's rendered text.
func checkErrStringMatch(pass *Pass, call *ast.CallExpr) {
	path, name := pass.callee(call)
	if path != "strings" {
		return
	}
	switch name {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold":
	default:
		return
	}
	for _, arg := range call.Args {
		if isErrorTextCall(pass, arg) {
			pass.Reportf(call, "matching err.Error() text with strings.%s; use errors.Is (or errors.As for typed inspection)", name)
			return
		}
	}
}

// isErrorTextCall matches a call of the form x.Error() where x is
// error-typed.
func isErrorTextCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	return isErrorExpr(pass, sel.X)
}

func isErrorExpr(pass *Pass, e ast.Expr) bool {
	return isErrorType(pass.TypeOf(e))
}

// isErrorType reports whether t is the predeclared error interface.
// Concrete error implementations compared by identity are a different
// (rarer) hazard; the sentinel bug class is interface-against-sentinel.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() == nil && obj.Name() == "error"
}

func isNilExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.IsNil()
}
