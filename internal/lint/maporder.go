package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder flags range statements over maps whose bodies have
// order-dependent effects — writing output directly, or appending to a
// slice that outlives the loop — without evidence that the order is
// later fixed by sorting. Go randomizes map iteration order, so such a
// loop leaks nondeterminism into results, serialized conventions, and
// generated pages (the PR-1 webgen/eval bug class).
//
// A loop is clean when its order-dependent effect is an append whose
// target is passed to a sort call (sort.Strings, sort.Slice, sort.Sort,
// slices.Sort, ...) later in the same function — the collect-keys,
// sort, iterate idiom. Writes into other maps, counters, and other
// order-insensitive effects are not flagged.
func Maporder() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "map iteration with order-dependent effects and no sorting",
		Run:  runMaporder,
	}
}

func runMaporder(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		forEachFunc(f, func(fn funcNode) {
			checkMaporderFunc(pass, fn)
		})
	}
}

func checkMaporderFunc(pass *Pass, fn funcNode) {
	walkFuncBody(fn.body, func(n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		t := pass.TypeOf(rng.X)
		if t == nil || !isMapType(t) {
			return
		}
		effect, target := orderEffect(pass, rng)
		if effect == "" {
			return
		}
		if target != "" && sortedInFunc(pass, fn.body, target) {
			return
		}
		pass.Reportf(rng, "iteration over map %s has an order-dependent effect (%s); map order is randomized — sort the keys first or sort the result",
			pass.ExprString(rng.X), effect)
	})
}

func isMapType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// orderEffect scans the range body for an order-dependent effect. It
// returns a description of the first one found and, for appends, the
// rendered append target (so the caller can look for a later sort).
// Direct output — fmt printing to a stream, writer/builder Write calls,
// encoder Encode calls — has no sortable target and is always flagged.
func orderEffect(pass *Pass, rng *ast.RangeStmt) (effect, target string) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := outputCall(pass, n); ok {
				effect = "writes output via " + name
				return false
			}
		case *ast.AssignStmt:
			if tgt, ok := appendTarget(pass, n, rng); ok {
				effect = "appends to " + tgt
				target = tgt
				return false
			}
		}
		return true
	})
	return effect, target
}

// outputCall recognizes calls that emit bytes in call order: fmt
// Print/Fprint families and Write/WriteString/Encode-style methods.
func outputCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	if path, name := pass.callee(call); path == "fmt" {
		switch name {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			return "fmt." + name, true
		}
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
		return "." + sel.Sel.Name, true
	}
	return "", false
}

// appendTarget matches `x = append(x, ...)` (or `x.f = append(x.f, ...)`)
// where the target is declared outside the range statement, so the
// iteration order determines the final element order.
func appendTarget(pass *Pass, assign *ast.AssignStmt, rng *ast.RangeStmt) (string, bool) {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return "", false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return "", false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || pass.Pkg.Info.Uses[fun] != types.Universe.Lookup("append") {
		return "", false
	}
	base := baseIdent(assign.Lhs[0])
	if base == nil || declaredWithin(pass, base, rng.Pos(), rng.End()) {
		return "", false
	}
	return pass.ExprString(assign.Lhs[0]), true
}

// baseIdent returns the leftmost identifier of an expression chain
// (x in x, x.f, x.f[i]), or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether id's declaration lies inside [lo, hi)
// — used to skip variables scoped to the loop itself.
func declaredWithin(pass *Pass, id *ast.Ident, lo, hi token.Pos) bool {
	obj := pass.Pkg.Info.Uses[id]
	if obj == nil {
		obj = pass.Pkg.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= lo && obj.Pos() < hi
}

// sortedInFunc reports whether the function body contains a sort call
// whose arguments mention target: sort.Strings(x), sort.Slice(x, less),
// sort.Sort(byFoo(x)), slices.Sort(x), slices.SortFunc(x, cmp), ...
func sortedInFunc(pass *Pass, body *ast.BlockStmt, target string) bool {
	found := false
	walkFuncBody(body, func(n ast.Node) {
		if found {
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSortCall(pass, call) {
			return
		}
		for _, arg := range call.Args {
			mentioned := false
			ast.Inspect(arg, func(sub ast.Node) bool {
				if e, ok := sub.(ast.Expr); ok && pass.ExprString(e) == target {
					mentioned = true
					return false
				}
				return true
			})
			if mentioned {
				found = true
				return
			}
		}
	})
	return found
}

func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	switch path, name := pass.callee(call); path {
	case "sort":
		switch name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	case "slices":
		switch name {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}
