package lint

import "go/ast"

// Tickerstop flags time.NewTicker / time.NewTimer calls whose result
// can never be stopped. Unlike time.After, a Ticker holds a runtime
// timer (and, until it is stopped, keeps firing) for as long as the
// program runs; a sampler or poll loop that creates one per call and
// forgets Stop leaks timers at exactly the rate it was meant to bound.
// The obs runtime sampler is the motivating case: its ticker must die
// with the sampler goroutine.
//
// A creation is fine when, in the same function:
//
//   - Stop is called on the variable holding it (anywhere in the
//     function, nested literals included — `defer t.Stop()` inside the
//     spawned goroutine is the usual shape), or
//   - the value escapes: it is returned, passed to another call, sent
//     on a channel, or stored in a struct field, slice, map, or global
//     — ownership moved, so Stop is some other scope's job.
//
// Flagged shapes: a result used only through its C field (including
// the unstoppable inline form `<-time.NewTicker(d).C`), a result
// discarded with `_`, and a bare call statement.
func Tickerstop() *Analyzer {
	return &Analyzer{
		Name: "tickerstop",
		Doc:  "time.NewTicker/NewTimer whose Stop is unreachable",
		Run:  runTickerstop,
	}
}

func runTickerstop(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		forEachFunc(f, func(fn funcNode) {
			checkTickerstopFunc(pass, fn)
		})
	}
}

func checkTickerstopFunc(pass *Pass, fn funcNode) {
	// Creations are scoped to this function body (nested literals are
	// their own funcNode), but Stop/escape evidence is searched through
	// the whole body including literals — the Stop that accounts for a
	// ticker usually lives inside the goroutine it drives. The parent
	// map is built only for a function that creates a timer.
	var parents map[ast.Node]ast.Node
	walkFuncBody(fn.body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		path, name := pass.callee(call)
		if path != "time" || (name != "NewTicker" && name != "NewTimer") {
			return
		}
		if parents == nil {
			parents = parentMap(fn.body)
		}
		if reason := tickerLeak(pass, fn.body, call, parents); reason != "" {
			pass.Reportf(call, "time.%s %s; call Stop (usually `defer t.Stop()`) so the runtime timer is released", name, reason)
		}
	})
}

// tickerLeak classifies one NewTicker/NewTimer call by how its result
// is consumed, returning a non-empty description when Stop is
// unreachable.
func tickerLeak(pass *Pass, body *ast.BlockStmt, call *ast.CallExpr, parents map[ast.Node]ast.Node) string {
	switch parent := parents[call].(type) {
	case *ast.AssignStmt:
		if ident := assignTarget(parent, call); ident != nil {
			if ident.Name == "_" {
				return "result is discarded"
			}
			if !tickerAccounted(pass, body, ident.Name, parents) {
				return "is never stopped"
			}
		}
		// Non-identifier target (struct field, map/slice element):
		// ownership moved out of this scope.
		return ""
	case *ast.ValueSpec:
		for i, v := range parent.Values {
			if v == call && i < len(parent.Names) {
				if parent.Names[i].Name == "_" {
					return "result is discarded"
				}
				if !tickerAccounted(pass, body, parent.Names[i].Name, parents) {
					return "is never stopped"
				}
			}
		}
		return ""
	case *ast.SelectorExpr:
		// time.NewTicker(d).C — the Ticker itself is unreachable the
		// moment the expression is evaluated; nothing can ever stop it.
		if parent.Sel.Name != "Stop" {
			return "is used inline, so its Stop is unreachable"
		}
		return ""
	case *ast.ExprStmt:
		return "result is discarded"
	}
	// Remaining parents — return statements, call arguments, channel
	// sends, composite literals — all move the value to another owner.
	return ""
}

// tickerAccounted reports whether the named ticker variable is stopped
// or escapes this function. Uses are matched by name and confirmed by
// type (a shadowing non-timer `t` does not count as evidence).
func tickerAccounted(pass *Pass, body *ast.BlockStmt, name string, parents map[ast.Node]ast.Node) bool {
	accounted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if accounted {
			return false
		}
		ident, ok := n.(*ast.Ident)
		if !ok || ident.Name != name || !isNamed(pass.TypeOf(ident), "time.Ticker", "time.Timer") {
			return true
		}
		switch use := timerUseKind(ident, parents); use {
		case "stop", "escape":
			accounted = true
			return false
		}
		return true
	})
	return accounted
}

// timerUseKind classifies one identifier occurrence: "stop" for
// t.Stop(), "neutral" for t.C / t.Reset / the defining assignment, and
// "escape" for every other use (returned, passed along, sent, stored).
func timerUseKind(ident *ast.Ident, parents map[ast.Node]ast.Node) string {
	switch parent := parents[ident].(type) {
	case *ast.SelectorExpr:
		if parent.X != ident {
			return "neutral" // ident is the field name, not the receiver
		}
		switch parent.Sel.Name {
		case "Stop":
			return "stop"
		case "C", "Reset":
			return "neutral"
		}
		return "escape"
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			if lhs == ident {
				return "neutral" // definition or reassignment target
			}
		}
		return "escape" // ident on the RHS: aliased away
	case *ast.ValueSpec:
		for _, n := range parent.Names {
			if n == ident {
				return "neutral"
			}
		}
		return "escape"
	}
	return "escape"
}

// assignTarget returns the identifier an assignment binds call's result
// to, or nil when the target is not a plain identifier.
func assignTarget(assign *ast.AssignStmt, call *ast.CallExpr) *ast.Ident {
	for i, rhs := range assign.Rhs {
		if rhs != call {
			continue
		}
		if len(assign.Lhs) == len(assign.Rhs) {
			ident, _ := assign.Lhs[i].(*ast.Ident)
			return ident
		}
	}
	return nil
}

// parentMap records each node's immediate parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
