package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Droppederr flags error values that vanish without being consulted.
// On the snapshot/IO/reload paths a swallowed error is silent
// corruption: a short write that "succeeded", a checksum mismatch that
// never surfaced, a reload that half-happened. Two layers:
//
// Syntactic discards — scoped to the corruption-critical directories
// listed in droppederrDirs, because a blanket rule would bury the
// signal under every fmt.Println in a CLI:
//
//   - a bare call statement (or deferred call) whose final result is
//     an error, and
//   - an error result assigned to the blank identifier (`_ = f()`,
//     `v, _ := f()`).
//
// Exempt by type, everywhere: writes that cannot fail —
// strings.Builder and bytes.Buffer methods, fmt.Fprint* into either,
// and fmt.Print*/fmt.Fprint* to os.Stdout/os.Stderr (a process cannot
// report its own stdout failing).
//
// Flow-based dead definitions — every package: an error assigned to a
// variable that is then overwritten or falls out of scope with no
// read on any path, found with the reaching-definitions layer:
//
//	err := f()
//	err = g() // f's error never consulted
//
// This layer is precise (escapes, closures, and named results are
// treated as uses), so it runs unscoped.
func Droppederr() *Analyzer {
	return &Analyzer{
		Name: "droppederr",
		Doc:  "error result discarded or overwritten without being consulted",
		Run:  runDroppederr,
	}
}

// droppederrDirs are the module directories where the syntactic
// discard rules apply: the snapshot/serving/reload data paths and the
// CLIs that write artifacts. A discarded error here can silently
// corrupt what the pipeline persists or serves.
var droppederrDirs = []string{
	"internal/geoloc",
	"internal/benchrec",
	"internal/obs",
	"internal/dnswire",
	"internal/dnsserve",
	"internal/daemon",
	"cmd/geoserve",
	"cmd/geosnap",
	"cmd/geodns",
	"cmd/geobench",
	"cmd/hoiho",
}

func droppederrScoped(dir string) bool {
	for _, d := range droppederrDirs {
		if dir == d || strings.HasPrefix(dir, d+"/") {
			return true
		}
	}
	return false
}

func runDroppederr(pass *Pass) {
	scoped := droppederrScoped(pass.Pkg.Dir)
	for _, f := range pass.Pkg.Files {
		forEachFunc(f, func(fn funcNode) {
			ud := NewUseDef(pass.FuncCFG(fn.body), fn.results, pass.Pkg.Info)
			if scoped {
				checkSyntacticDrops(pass, fn, ud)
			}
			checkDeadErrorDefs(pass, ud)
		})
	}
}

// checkSyntacticDrops reports bare calls and blank assignments that
// lose an error in one function body. Two idioms are exempted with
// help from the flow layer:
//
//   - Close() on a handle whose every reaching definition is os.Open:
//     closing a read-only descriptor cannot lose buffered writes, so
//     its error is noise.
//   - a bare Close() immediately before a return that carries a
//     non-nil error: failure-path cleanup, where the primary error is
//     already being reported and the Close error is secondary.
func checkSyntacticDrops(pass *Pass, fn funcNode, ud *UseDef) {
	next := nextStmtMap(fn.body)
	walkFuncBody(fn.body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if !ok || !callReturnsError(pass, call) || infallibleCall(pass, call) {
				return
			}
			if readOnlyClose(pass, ud, call) || closeBeforeErrorReturn(pass, call, n, next) {
				return
			}
			pass.Reportf(call, "call discards its error result; check it (or `//lint:ignore droppederr <why>` if it truly cannot matter)")
		case *ast.DeferStmt:
			if !callReturnsError(pass, n.Call) || infallibleCall(pass, n.Call) {
				return
			}
			if readOnlyClose(pass, ud, n.Call) {
				return
			}
			pass.Reportf(n.Call, "deferred call discards its error result; check it (or `//lint:ignore droppederr <why>` if it truly cannot matter)")
		case *ast.AssignStmt:
			checkBlankErrAssign(pass, n)
		}
	})
}

// nextStmtMap records, for every statement in the body (function
// literals excluded), the statement that lexically follows it in the
// same list.
func nextStmtMap(body *ast.BlockStmt) map[ast.Stmt]ast.Stmt {
	next := make(map[ast.Stmt]ast.Stmt)
	record := func(list []ast.Stmt) {
		for i := 0; i+1 < len(list); i++ {
			next[list[i]] = list[i+1]
		}
	}
	record(body.List)
	walkFuncBody(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.BlockStmt:
			record(n.List)
		case *ast.CaseClause:
			record(n.Body)
		case *ast.CommClause:
			record(n.Body)
		}
	})
	return next
}

// readOnlyClose reports whether the call is recv.Close() where every
// definition of recv that reaches this use is an os.Open result — a
// read-only file, whose Close error carries no information a caller
// could act on.
func readOnlyClose(pass *Pass, ud *UseDef, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	defs := ud.ReachingDefs(id)
	if len(defs) == 0 {
		return false
	}
	for _, d := range defs {
		if !defIsOsOpen(pass, d) {
			return false
		}
	}
	return true
}

// defIsOsOpen matches `f, err := os.Open(...)` / `var f, _ = os.Open(...)`
// definitions.
func defIsOsOpen(pass *Pass, d Def) bool {
	var rhs []ast.Expr
	switch n := d.Node.(type) {
	case *ast.AssignStmt:
		rhs = n.Rhs
	case *ast.ValueSpec:
		rhs = n.Values
	default:
		return false
	}
	if len(rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	path, name := pass.callee(call)
	return path == "os" && name == "Open"
}

// closeBeforeErrorReturn reports whether stmt is a Close() immediately
// followed by a return whose results include a non-nil error — the
// cleanup-then-report shape of a failure path.
func closeBeforeErrorReturn(pass *Pass, call *ast.CallExpr, stmt ast.Stmt, next map[ast.Stmt]ast.Stmt) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	ret, ok := next[stmt].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	for _, r := range ret.Results {
		if isErrorType(pass.TypeOf(r)) && !isNilExpr(pass, r) {
			return true
		}
	}
	return false
}

// checkBlankErrAssign flags `_ = f()` and `v, _ := f()` where the
// blanked position is error-typed.
func checkBlankErrAssign(pass *Pass, a *ast.AssignStmt) {
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		// v, _ := f(): one call, tuple result.
		call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr)
		if !ok || infallibleCall(pass, call) {
			return
		}
		tuple, ok := pass.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(a.Lhs) {
			return
		}
		for i, lhs := range a.Lhs {
			if isBlankIdent(lhs) && isErrorType(tuple.At(i).Type()) {
				pass.Reportf(a, "error result of %s discarded with _", pass.ExprString(call.Fun))
				return
			}
		}
		return
	}
	for i, lhs := range a.Lhs {
		if !isBlankIdent(lhs) || i >= len(a.Rhs) {
			continue
		}
		rhs := ast.Unparen(a.Rhs[i])
		if !isErrorType(pass.TypeOf(rhs)) {
			continue
		}
		if call, ok := rhs.(*ast.CallExpr); ok && infallibleCall(pass, call) {
			continue
		}
		pass.Reportf(a, "error value %s discarded with _", pass.ExprString(a.Rhs[i]))
	}
}

// checkDeadErrorDefs reports the error definitions of one function,
// produced by a call, that no path ever reads.
func checkDeadErrorDefs(pass *Pass, ud *UseDef) {
	for _, d := range ud.DeadDefs() {
		if isErrorType(d.Obj.Type()) && defFromCall(d) {
			pass.Reportf(d.Id, "error assigned to %s is never consulted on any path (overwritten or dropped)", d.Obj.Name())
		}
	}
}

// defFromCall reports whether the definition's right-hand side
// contains a call — `err := f()` is a dropped error, `err := nil` or
// `var err error` is just initialization.
func defFromCall(d Def) bool {
	var rhs []ast.Expr
	switch n := d.Node.(type) {
	case *ast.AssignStmt:
		rhs = n.Rhs
	case *ast.ValueSpec:
		rhs = n.Values
	default:
		return false
	}
	for _, e := range rhs {
		found := false
		ast.Inspect(e, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if _, ok := x.(*ast.CallExpr); ok {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// callReturnsError reports whether the call's only or final result is
// an error.
func callReturnsError(pass *Pass, call *ast.CallExpr) bool {
	switch t := pass.TypeOf(call).(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

// infallibleCall exempts calls whose per-call error can never carry
// information by documented contract: strings.Builder / bytes.Buffer
// writers, bufio.Writer's sticky-error writes (everything but Flush —
// the first error is latched and returned there, which is where the
// check belongs), and fmt printing to the process's own stdout/stderr
// or into any of those writers.
func infallibleCall(pass *Pass, call *ast.CallExpr) bool {
	// Methods on infallible buffers: b.WriteString(...), buf.Write(...).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		recvT := pass.TypeOf(sel.X)
		if isNamed(recvT, "strings.Builder", "bytes.Buffer") || isNamed(recvT, "bufio.Writer") && sel.Sel.Name != "Flush" {
			return true
		}
	}
	// fmt.Print*/Fprint* variants.
	path, name := pass.callee(call)
	if path != "fmt" {
		return false
	}
	if strings.HasPrefix(name, "Print") {
		return true // process stdout; a failure has nowhere to be reported
	}
	if !strings.HasPrefix(name, "Fprint") || len(call.Args) == 0 {
		return false
	}
	w := ast.Unparen(call.Args[0])
	return isNamed(pass.TypeOf(w), "strings.Builder", "bytes.Buffer", "bufio.Writer") || isStdStream(pass, w)
}

// isStdStream reports whether e names the variable os.Stdout or
// os.Stderr, resolved through Info.Uses.
func isStdStream(pass *Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Var)
	return ok && v.Pkg() != nil && v.Pkg().Path() == "os" && (v.Name() == "Stdout" || v.Name() == "Stderr")
}

func isBlankIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
