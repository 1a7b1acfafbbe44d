package lint

import "go/ast"

// Unlockpath is the CFG check that every mutex Lock has a matching
// Unlock on every path to a normal return. The single-pass walkers
// cannot see "Unlock missing on one branch": the classic leak is
//
//	mu.Lock()
//	if cond {
//		return x // still holding mu
//	}
//	mu.Unlock()
//
// which deadlocks the next locker — in this repo that would wedge the
// reload mutex or the obs aggregation mutex forever, with no crash to
// point at the cause.
//
// For each Lock()/RLock() on a sync.Mutex/RWMutex (or sync.Locker),
// the analyzer walks the control-flow graph from the lock site: a path
// is accounted when it passes a matching Unlock()/RUnlock() on the
// same receiver expression, and the whole lock is accounted when a
// defer of the matching unlock (directly, or inside a deferred
// function literal) exists in the function. Reaching the function exit
// otherwise is a finding. Paths that end in panic or os.Exit are not
// normal returns and are not flagged — deferred unlocks run during
// unwind, and a panic while locked is a different bug class.
//
// Receivers are matched textually ("s.mu" == "s.mu"), so aliasing a
// mutex through a pointer variable defeats the check; the repo's
// mutexes are all addressed as fields, where the textual match is
// exact.
func Unlockpath() *Analyzer {
	return &Analyzer{
		Name: "unlockpath",
		Doc:  "a mutex Lock with no Unlock on some path to return",
		Run:  runUnlockpath,
	}
}

// unlockOf pairs each lock method with the unlock that releases it.
var unlockOf = map[string]string{
	"Lock":  "Unlock",
	"RLock": "RUnlock",
}

func runUnlockpath(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		forEachFunc(f, func(fn funcNode) {
			checkUnlockpathFunc(pass, fn)
		})
	}
}

func checkUnlockpathFunc(pass *Pass, fn funcNode) {
	cfg := pass.FuncCFG(fn.body)
	for _, blk := range cfg.Blocks {
		for ni, n := range blk.Nodes {
			lockCall, recv, method := mutexLockIn(pass, n)
			if lockCall == nil {
				continue
			}
			unlock := unlockOf[method]
			if deferredUnlock(pass, cfg, recv, unlock) {
				continue
			}
			if leakBlock := lockLeaks(pass, cfg, blk, ni, recv, unlock); leakBlock != nil {
				pass.Reportf(lockCall, "%s.%s() is not released on every path: a return is reachable without %s.%s() (and no defer covers it)",
					recv, method, recv, unlock)
			}
		}
	}
}

// mutexLockIn scans one block node for a Lock/RLock call on a
// mutex-typed receiver, returning the call, the receiver's rendering,
// and the method name. Nested function literals are skipped — their
// bodies get their own graphs.
func mutexLockIn(pass *Pass, n ast.Node) (call *ast.CallExpr, recv, method string) {
	for _, part := range ShallowParts(n) {
		ast.Inspect(part, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if call != nil {
				return false
			}
			c, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if _, locks := unlockOf[sel.Sel.Name]; !locks || !isNamed(pass.TypeOf(sel.X), "sync.Mutex", "sync.RWMutex", "sync.Locker") {
				return true
			}
			call, recv, method = c, pass.ExprString(sel.X), sel.Sel.Name
			return false
		})
	}
	return call, recv, method
}

// unlockIn reports whether the node contains `recv.unlock()` (outside
// nested literals).
func unlockIn(pass *Pass, n ast.Node, recv, unlock string) bool {
	found := false
	for _, part := range ShallowParts(n) {
		ast.Inspect(part, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if found {
				return false
			}
			if c, ok := x.(*ast.CallExpr); ok && isUnlockCall(pass, c, recv, unlock) {
				found = true
				return false
			}
			return true
		})
	}
	return found
}

func isUnlockCall(pass *Pass, c *ast.CallExpr, recv, unlock string) bool {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != unlock {
		return false
	}
	return pass.ExprString(sel.X) == recv
}

// deferredUnlock reports whether the function registers a defer that
// releases recv: `defer recv.Unlock()` directly, or a deferred
// function literal whose body contains the unlock. A registered defer
// covers every exit, normal or panicking.
func deferredUnlock(pass *Pass, cfg *CFG, recv, unlock string) bool {
	for _, d := range cfg.Defers {
		if isUnlockCall(pass, d.Call, recv, unlock) {
			return true
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			hit := false
			ast.Inspect(lit.Body, func(x ast.Node) bool {
				if hit {
					return false
				}
				if c, ok := x.(*ast.CallExpr); ok && isUnlockCall(pass, c, recv, unlock) {
					hit = true
					return false
				}
				return true
			})
			if hit {
				return true
			}
		}
	}
	return false
}

// lockLeaks walks forward from the lock at blk.Nodes[ni]. It returns a
// block through which a normal exit is reachable without passing the
// unlock, or nil when every such path is covered.
func lockLeaks(pass *Pass, cfg *CFG, blk *Block, ni int, recv, unlock string) *Block {
	// Rest of the lock's own block first: blocks are straight-line, so
	// an unlock later in the block covers every path through it.
	for _, n := range blk.Nodes[ni+1:] {
		if unlockIn(pass, n, recv, unlock) {
			return nil
		}
	}
	seen := make([]bool, len(cfg.Blocks))
	stack := append([]*Block(nil), blk.Succs...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b.Index] {
			continue
		}
		seen[b.Index] = true
		if b == cfg.Exit {
			return b
		}
		released := false
		for _, n := range b.Nodes {
			if unlockIn(pass, n, recv, unlock) {
				released = true
				break
			}
		}
		if released {
			continue
		}
		stack = append(stack, b.Succs...)
	}
	return nil
}
