package lint

import "go/ast"

// Nakedgo flags `go` statements launched without any visible join or
// cancellation discipline in the spawning function. A goroutine that
// nothing waits for can outlive the work it belongs to, race shutdown,
// and leak — the pipeline's worker pool and the geoserve drain logic
// both exist because of this.
//
// Evidence that the spawn is accounted for, anywhere in the same
// function (including the goroutine body itself):
//
//   - a Wait or Done call (sync.WaitGroup, errgroup.Group, ctx.Done)
//   - an Add call on a value whose type is sync.WaitGroup — the spawn
//     is registered with a group whose Wait lives in another method
//     (the struct-field WaitGroup pattern)
//   - a channel receive or a select statement (completion signalling)
//   - a range over a channel (draining results)
//
// The analyzer checks discipline, not correctness: it asks "does
// anything join this goroutine?", not "is the join right".
func Nakedgo() *Analyzer {
	return &Analyzer{
		Name: "nakedgo",
		Doc:  "goroutine without a visible join or cancellation in the spawning function",
		Run:  runNakedgo,
	}
}

func runNakedgo(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		forEachFunc(f, func(fn funcNode) {
			checkNakedgoFunc(pass, fn)
		})
	}
}

func checkNakedgoFunc(pass *Pass, fn funcNode) {
	var spawns []*ast.GoStmt
	walkFuncBody(fn.body, func(n ast.Node) {
		if g, ok := n.(*ast.GoStmt); ok {
			spawns = append(spawns, g)
		}
	})
	if len(spawns) == 0 || hasJoinEvidence(pass, fn.body) {
		return
	}
	for _, g := range spawns {
		pass.Reportf(g, "goroutine has no visible join or cancellation (WaitGroup/errgroup Wait, channel receive, or select) in the spawning function")
	}
}

// hasJoinEvidence scans the whole function body, nested literals
// included — the Done call that accounts for a spawn usually lives
// inside the goroutine's own literal.
func hasJoinEvidence(pass *Pass, body *ast.BlockStmt) bool {
	if callsMethodNamed(body, "Wait", "Done") {
		return true
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.CallExpr:
			// wg.Add(n) registers the spawn with a WaitGroup even when
			// the matching Wait lives in another method (the struct-field
			// pattern: s.wg.Add(1); go s.loop() with Wait in Close).
			// Type-checked so an unrelated Add — a metrics counter, a
			// custom set — is not mistaken for join discipline.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" &&
				isNamed(pass.TypeOf(sel.X), "sync.WaitGroup") {
				found = true
			}
		case *ast.RangeStmt:
			// Ranging over a channel is a receive; without type info we
			// cannot tell, so any range does not count — receives and
			// selects are the explicit signals.
		}
		return !found
	})
	return found
}
