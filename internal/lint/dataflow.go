package lint

// Reaching definitions over the CFG: the use-def layer flow-aware
// analyzers build on. For every local variable the layer records each
// definition (assignment, declaration, range binding, inc/dec) and
// computes, with the standard worklist iteration, which definitions
// reach each use. The analyzers read two facts from it:
//
//   - ReachingDefs(use): the definitions whose value a use may read
//     (droppederr's read-only Close asks whether all are os.Open).
//   - DeadDefs(): the definitions no use reads. Such a value is
//     overwritten or falls out of scope unread, which for an error
//     value means the error was silently dropped (droppederr). A
//     variable whose address is taken, that a function literal
//     captures, or that is a named result has invisible readers, so
//     none of its definitions is dead — conservative, never wrong.
//
// Blank identifiers are not variables and are never tracked; struct
// fields and package-level variables have lifetimes beyond one
// function and are excluded for the same reason.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Def is one definition of a local variable: Id is the defined
// identifier occurrence, Node the statement that performs it.
type Def struct {
	Obj  types.Object
	Id   *ast.Ident
	Node ast.Node
}

// UseDef holds the reaching-definitions solution for one function.
type UseDef struct {
	// Defs lists every definition in deterministic (block, statement)
	// order.
	Defs []Def
	// reaches maps each use identifier to the indexes (into Defs) of
	// the definitions that may have produced its value.
	reaches map[*ast.Ident][]int
	// usedBy is the inverse: definition index -> use identifiers.
	usedBy map[int][]*ast.Ident
	// escaped marks variables with invisible readers (address taken,
	// closure capture, named result).
	escaped map[types.Object]bool
}

// ReachingDefs returns the definitions that may reach the given use
// identifier.
func (u *UseDef) ReachingDefs(id *ast.Ident) []Def {
	var out []Def
	for _, i := range u.reaches[id] {
		out = append(out, u.Defs[i])
	}
	return out
}

// DeadDefs returns the definitions whose stored value is provably
// never read: the variable does not escape and no use is reached.
func (u *UseDef) DeadDefs() []Def {
	var out []Def
	for i, d := range u.Defs {
		if u.escaped[d.Obj] {
			continue
		}
		if len(u.usedBy[i]) == 0 {
			out = append(out, d)
		}
	}
	return out
}

// NewUseDef computes reaching definitions for one function. results is
// the function's result list: named results are treated as escaped
// (every return statement reads them implicitly). info supplies
// identifier resolution and may be partial — unresolved identifiers
// are simply not tracked.
func NewUseDef(cfg *CFG, results *ast.FieldList, info *types.Info) *UseDef {
	u := &UseDef{
		reaches: make(map[*ast.Ident][]int),
		usedBy:  make(map[int][]*ast.Ident),
		escaped: make(map[types.Object]bool),
	}
	if info == nil {
		return u
	}
	if results != nil {
		for _, f := range results.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					u.escaped[obj] = true
				}
			}
		}
	}

	// Pass 1: collect per-block event sequences (defs and uses in
	// execution order) and escape facts.
	events := make([][]dfEvent, len(cfg.Blocks))
	c := &dfCollector{u: u, info: info}
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			c.node(n, &events[blk.Index])
		}
	}

	// Number the defs and build per-block gen/kill.
	type last map[types.Object]int // obj -> def index
	gen := make([]last, len(cfg.Blocks))
	for bi := range events {
		gen[bi] = make(last)
		for ei := range events[bi] {
			ev := &events[bi][ei]
			if !ev.isDef {
				continue
			}
			ev.defIndex = len(u.Defs)
			u.Defs = append(u.Defs, Def{Obj: ev.obj, Id: ev.id, Node: ev.node})
			gen[bi][ev.obj] = ev.defIndex
		}
	}

	// Worklist iteration at block granularity. in[b] and out[b] map an
	// object to the set of reaching def indexes.
	type defset map[types.Object]map[int]bool
	in := make([]defset, len(cfg.Blocks))
	out := make([]defset, len(cfg.Blocks))
	for i := range cfg.Blocks {
		in[i], out[i] = defset{}, defset{}
	}
	copyInto := func(dst defset, src defset) bool {
		changed := false
		for obj, defs := range src {
			d := dst[obj]
			if d == nil {
				d = make(map[int]bool, len(defs))
				dst[obj] = d
			}
			for i := range defs {
				if !d[i] {
					d[i] = true
					changed = true
				}
			}
		}
		return changed
	}
	work := make([]*Block, len(cfg.Blocks))
	copy(work, cfg.Blocks)
	inWork := make([]bool, len(cfg.Blocks))
	for i := range inWork {
		inWork[i] = true
	}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk.Index] = false
		bi := blk.Index
		for _, p := range blk.Preds {
			copyInto(in[bi], out[p.Index])
		}
		// out = gen ∪ (in − kill): kill is every obj defined in the block.
		next := defset{}
		for obj, defs := range in[bi] {
			if _, killed := gen[bi][obj]; killed {
				continue
			}
			next[obj] = defs
		}
		for obj, di := range gen[bi] {
			next[obj] = map[int]bool{di: true}
		}
		if copyInto(out[bi], next) {
			for _, s := range blk.Succs {
				if !inWork[s.Index] {
					inWork[s.Index] = true
					work = append(work, s)
				}
			}
		}
	}

	// Pass 2: replay each block's events against its in-state to
	// resolve uses.
	for _, blk := range cfg.Blocks {
		bi := blk.Index
		cur := make(map[types.Object][]int)
		for obj, defs := range in[bi] {
			ids := make([]int, 0, len(defs))
			for i := range defs {
				ids = append(ids, i)
			}
			sort.Ints(ids)
			cur[obj] = ids
		}
		for _, ev := range events[bi] {
			if ev.isDef {
				cur[ev.obj] = []int{ev.defIndex}
				continue
			}
			for _, di := range cur[ev.obj] {
				u.reaches[ev.id] = append(u.reaches[ev.id], di)
				u.usedBy[di] = append(u.usedBy[di], ev.id)
			}
		}
	}
	return u
}

// dfEvent is one def or use of a local variable, in block order.
type dfEvent struct {
	obj      types.Object
	id       *ast.Ident
	node     ast.Node
	isDef    bool
	defIndex int
}

// dfCollector walks one block node emitting events. It understands the
// evaluation order that matters here: assignment right-hand sides are
// read before left-hand sides are written.
type dfCollector struct {
	u    *UseDef
	info *types.Info
}

func (c *dfCollector) node(n ast.Node, evs *[]dfEvent) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			c.expr(rhs, evs)
		}
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					// Compound assignment (+=, &^=, ...) reads before it writes.
					c.use(id, evs)
				}
				c.def(id, n, evs)
				continue
			}
			// x.f = v, x[i] = v: the base is read, nothing local defined.
			c.expr(lhs, evs)
		}
	case *ast.ExprStmt:
		c.expr(n.X, evs)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				c.expr(v, evs)
			}
			for _, name := range vs.Names {
				c.def(name, vs, evs)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := n.X.(*ast.Ident); ok {
			c.use(id, evs)
			c.def(id, n, evs)
			return
		}
		c.expr(n.X, evs)
	case *ast.RangeStmt:
		c.expr(n.X, evs)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			id, ok := e.(*ast.Ident)
			if !ok {
				if e != nil {
					c.expr(e, evs)
				}
				continue
			}
			if n.Tok == token.DEFINE || n.Tok == token.ASSIGN {
				c.def(id, n, evs)
			}
		}
	case *ast.SendStmt:
		c.expr(n.Chan, evs)
		c.expr(n.Value, evs)
	case *ast.GoStmt:
		c.expr(n.Call, evs)
	case *ast.DeferStmt:
		// Defer evaluates the call's operands immediately.
		c.expr(n.Call, evs)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			c.expr(r, evs)
		}
	case ast.Expr:
		c.expr(n, evs)
	case ast.Stmt:
		// Init statements of compound constructs arrive through the
		// cases above; anything else (labeled empties, ...) has no
		// dataflow effect.
	}
}

// expr emits use events for every variable read in e, and escape facts
// for address-taken and closure-captured variables.
func (c *dfCollector) expr(e ast.Expr, evs *[]dfEvent) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		c.use(e, evs)
	case *ast.SelectorExpr:
		// Only the base is a variable read; Sel names a field or method.
		c.expr(e.X, evs)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				c.use(id, evs)
				if obj := c.objOf(id); obj != nil {
					c.u.escaped[obj] = true
				}
				return
			}
		}
		c.expr(e.X, evs)
	case *ast.FuncLit:
		// The literal's body is another function; every outer variable
		// it mentions escapes into it.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := c.objOf(id); obj != nil {
					c.u.escaped[obj] = true
				}
			}
			return true
		})
	case *ast.CallExpr:
		c.expr(e.Fun, evs)
		for _, a := range e.Args {
			c.expr(a, evs)
		}
	case *ast.BinaryExpr:
		c.expr(e.X, evs)
		c.expr(e.Y, evs)
	case *ast.ParenExpr:
		c.expr(e.X, evs)
	case *ast.StarExpr:
		c.expr(e.X, evs)
	case *ast.IndexExpr:
		c.expr(e.X, evs)
		c.expr(e.Index, evs)
	case *ast.IndexListExpr:
		c.expr(e.X, evs)
		for _, i := range e.Indices {
			c.expr(i, evs)
		}
	case *ast.SliceExpr:
		c.expr(e.X, evs)
		c.expr(e.Low, evs)
		c.expr(e.High, evs)
		c.expr(e.Max, evs)
	case *ast.TypeAssertExpr:
		c.expr(e.X, evs)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				// Struct field keys are not variable reads; map keys are.
				if _, isId := kv.Key.(*ast.Ident); !isId {
					c.expr(kv.Key, evs)
				}
				c.expr(kv.Value, evs)
				continue
			}
			c.expr(el, evs)
		}
	case *ast.KeyValueExpr:
		c.expr(e.Key, evs)
		c.expr(e.Value, evs)
	}
	// Type expressions (ArrayType, MapType, ...) read no variables.
}

// objOf resolves an identifier to a trackable local variable object,
// or nil: blanks, fields, package-level variables, constants, and
// functions are not tracked.
func (c *dfCollector) objOf(id *ast.Ident) types.Object {
	if id == nil || id.Name == "_" {
		return nil
	}
	obj := c.info.Uses[id]
	if obj == nil {
		obj = c.info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() == nil || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil // package-level
	}
	return v
}

func (c *dfCollector) use(id *ast.Ident, evs *[]dfEvent) {
	if obj := c.objOf(id); obj != nil {
		*evs = append(*evs, dfEvent{obj: obj, id: id, node: id})
	}
}

func (c *dfCollector) def(id *ast.Ident, node ast.Node, evs *[]dfEvent) {
	if obj := c.objOf(id); obj != nil {
		*evs = append(*evs, dfEvent{obj: obj, id: id, node: node, isDef: true})
	}
}
