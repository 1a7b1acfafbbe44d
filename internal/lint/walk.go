package lint

import (
	"go/ast"
)

// funcNode is a function under analysis: a declared function or a
// function literal, each treated as its own scope. recv is the
// receiver name for methods.
type funcNode struct {
	recv    string
	params  *ast.FieldList
	results *ast.FieldList
	body    *ast.BlockStmt
}

// forEachFunc visits every function declaration and function literal
// in the file, each exactly once.
func forEachFunc(f *ast.File, visit func(funcNode)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return true
			}
			fn := funcNode{params: n.Type.Params, results: n.Type.Results, body: n.Body}
			if n.Recv != nil && len(n.Recv.List) > 0 && len(n.Recv.List[0].Names) > 0 {
				fn.recv = n.Recv.List[0].Names[0].Name
			}
			visit(fn)
		case *ast.FuncLit:
			visit(funcNode{params: n.Type.Params, results: n.Type.Results, body: n.Body})
		}
		return true
	})
}

// walkFuncBody visits the nodes of one function body without
// descending into nested function literals — those are separate scopes
// that forEachFunc hands out on their own.
func walkFuncBody(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// paramNames returns the named parameters of a field list.
func paramNames(params *ast.FieldList) map[string]bool {
	names := make(map[string]bool)
	if params == nil {
		return names
	}
	for _, field := range params.List {
		for _, name := range field.Names {
			names[name.Name] = true
		}
	}
	return names
}

// callsMethodNamed reports whether the body (including nested function
// literals) contains a call to a method with one of the given names.
func callsMethodNamed(body *ast.BlockStmt, names ...string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		for _, name := range names {
			if sel.Sel.Name == name {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
