package lint

import (
	"go/ast"
	"strings"
)

// Hotcompile flags regexp compilation on hot paths — the PR-2 geoloc
// bug class, where patterns were recompiled on every Lookup instead of
// once at index build time. A call to regexp.Compile, MustCompile,
// CompilePOSIX, or MustCompilePOSIX is reported when it sits
// (lexically) inside a for/range loop, or inside an HTTP handler — a
// function taking an http.ResponseWriter or *http.Request.
//
// Compilation at package level, in init, or in ordinary construction
// code that runs once per build is fine and not reported. Loops that
// genuinely must compile dynamic patterns (the learning pipeline's
// candidate evaluation) document that with //lint:ignore hotcompile.
func Hotcompile() *Analyzer {
	return &Analyzer{
		Name: "hotcompile",
		Doc:  "regexp compilation inside a loop or per-request handler",
		Run:  runHotcompile,
	}
}

func runHotcompile(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		forEachFunc(f, func(fn funcNode) {
			checkHotcompileFunc(pass, fn)
		})
	}
}

func checkHotcompileFunc(pass *Pass, fn funcNode) {
	handler := isHandlerFunc(pass, fn)
	var walk func(n ast.Node, loops int)
	walk = func(n ast.Node, loops int) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.ForStmt, *ast.RangeStmt:
			loops++
		case *ast.FuncLit:
			// A literal defined inside a loop still runs per iteration;
			// keep the loop depth. Its own loops nest on top.
		case *ast.CallExpr:
			// Compile, MustCompile, CompilePOSIX and MustCompilePOSIX are
			// regexp's only functions with Compile in their name.
			if path, name := pass.callee(n); path == "regexp" && strings.Contains(name, "Compile") {
				switch {
				case loops > 0:
					pass.Reportf(n, "regexp.%s inside a loop; compile once at init or index build time and reuse", name)
				case handler:
					pass.Reportf(n, "regexp.%s inside a request handler; compile once at init or index build time and reuse", name)
				}
			}
		}
		for _, child := range childNodes(n) {
			walk(child, loops)
		}
	}
	walk(fn.body, 0)
}

// isHandlerFunc reports whether the function takes an
// http.ResponseWriter or *http.Request — the request-scoped signature.
func isHandlerFunc(pass *Pass, fn funcNode) bool {
	if fn.params == nil {
		return false
	}
	for _, field := range fn.params.List {
		if isNamed(pass.TypeOf(field.Type), "net/http.ResponseWriter", "net/http.Request") {
			return true
		}
	}
	return false
}

// childNodes lists a node's direct children via ast.Inspect's
// first-level callbacks.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	depth := 0
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			depth--
			return true
		}
		depth++
		if depth == 2 {
			out = append(out, c)
			depth--
			return false
		}
		return true
	})
	return out
}
