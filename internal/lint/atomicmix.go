package lint

import (
	"go/ast"
	"go/types"
)

// Atomicmix flags a variable or field accessed both through sync/atomic
// functions and through plain reads/writes in the same package. Mixing
// the two is a data race that the race detector only catches when the
// schedule cooperates: the atomic side establishes no ordering for the
// plain side, so a plain read can observe a torn or stale value. This
// is the `Live`-pointer / stats-era bug class — one hot path upgraded
// to atomic.Load while a forgotten maintenance path still wrote the
// field directly.
//
// The analyzer keys accesses by the type-checker's object for the
// field or variable, so `s.count` in one file and `srv.count` in
// another are the same field. Every plain access of a mixed object is
// reported (the atomic sites are the intended protocol; the plain
// sites are the bug). The modern typed atomics (atomic.Int64 and
// friends) make this mistake unrepresentable — preferring them is the
// real fix — but the old function-based API is still what the fix-up
// path reaches for.
func Atomicmix() *Analyzer {
	return &Analyzer{
		Name: "atomicmix",
		Doc:  "field accessed both via sync/atomic and by plain read/write",
		Run:  runAtomicmix,
	}
}

func runAtomicmix(pass *Pass) {
	// First pass over the whole package: find atomic accesses and
	// remember the exact identifier nodes inside the &arg, so the
	// second pass can tell a plain access from the atomic site itself.
	atomicSites := make(map[types.Object][]ast.Node)
	atomicIdents := make(map[*ast.Ident]bool)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Every package-level function of sync/atomic (Load, Store,
			// Add, Swap, CompareAndSwap, And, Or) takes the address it
			// accesses first.
			if path, _ := pass.callee(call); path != "sync/atomic" || len(call.Args) == 0 {
				return true
			}
			obj, ids := addressedObject(pass, call.Args[0])
			if obj == nil {
				return true
			}
			atomicSites[obj] = append(atomicSites[obj], call)
			for _, id := range ids {
				atomicIdents[id] = true
			}
			return true
		})
	}
	if len(atomicSites) == 0 {
		return
	}

	// Second pass: any use of a mixed object outside an atomic call is
	// a plain access.
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || atomicIdents[id] {
				return true
			}
			obj := pass.Pkg.Info.Uses[id]
			if obj == nil {
				return true
			}
			if _, mixed := atomicSites[obj]; !mixed {
				return true
			}
			pass.Reportf(id, "%s is accessed with sync/atomic elsewhere in this package; this plain access races with it — use atomic for every access (or a typed atomic field)",
				id.Name)
			return true
		})
	}
}

// addressedObject resolves the &x / &x.f argument of an atomic call to
// the variable or field object being accessed, along with the
// identifier chain inside the operand (so those occurrences are not
// double-counted as plain accesses).
func addressedObject(pass *Pass, arg ast.Expr) (types.Object, []*ast.Ident) {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok {
		return nil, nil
	}
	var ids []*ast.Ident
	ast.Inspect(un.X, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			ids = append(ids, id)
		}
		return true
	})
	switch x := ast.Unparen(un.X).(type) {
	case *ast.Ident:
		return pass.Pkg.Info.Uses[x], ids
	case *ast.SelectorExpr:
		return pass.Pkg.Info.Uses[x.Sel], ids
	}
	return nil, nil
}
