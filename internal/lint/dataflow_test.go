package lint

import (
	"go/ast"
	"testing"
)

// udForFunc type-checks the fixture, finds the named function, and
// returns its use-def solution.
func udForFunc(t *testing.T, src, fname string) (*Package, *UseDef) {
	t.Helper()
	pkg, err := CheckSource("df_fixture.go", src)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fname {
				continue
			}
			cfg := BuildCFG(fd.Body)
			return pkg, NewUseDef(cfg, fd.Type.Results, pkg.Info)
		}
	}
	t.Fatalf("function %s not found", fname)
	return nil, nil
}

// deadNames renders DeadDefs as "name@line" for compact assertions.
func deadNames(pkg *Package, ud *UseDef) []string {
	var out []string
	for _, d := range ud.DeadDefs() {
		pos := pkg.Fset.Position(d.Id.Pos())
		out = append(out, d.Obj.Name()+"@"+itoa(pos.Line))
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func wantDead(t *testing.T, pkg *Package, ud *UseDef, want ...string) {
	t.Helper()
	got := deadNames(pkg, ud)
	if len(got) != len(want) {
		t.Fatalf("dead defs = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("dead def %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestUseDefOverwriteIsDead(t *testing.T) {
	src := `package df

func f() int {
	x := 1
	x = 2
	return x
}
`
	pkg, ud := udForFunc(t, src, "f")
	wantDead(t, pkg, ud, "x@4")
}

func TestUseDefBranchUseIsLive(t *testing.T) {
	src := `package df

func f(c bool) int {
	x := 1
	if c {
		return x
	}
	x = 2
	return x
}
`
	// The first definition reaches the use inside the branch, so only
	// a def with no reachable use would be dead — here there is none.
	pkg, ud := udForFunc(t, src, "f")
	wantDead(t, pkg, ud)
}

func TestUseDefLoopCarriedUse(t *testing.T) {
	src := `package df

func f(n int) int {
	sum := 0
	for i := 0; i < n; i++ {
		sum += i
	}
	return sum
}
`
	// sum's initial def flows around the loop's back edge; i's def in
	// the init reaches the condition. Nothing is dead.
	pkg, ud := udForFunc(t, src, "f")
	wantDead(t, pkg, ud)
}

func TestUseDefEscapes(t *testing.T) {
	src := `package df

func addr() *int {
	x := 1
	x = 2
	return &x
}

func captured() func() int {
	y := 1
	y = 2
	return func() int { return y }
}

func named() (err error) {
	err = nil
	return
}
`
	// Address-taken, closure-captured, and named-result variables all
	// have invisible readers: no dead defs even though the first
	// assignments are overwritten.
	for _, fname := range []string{"addr", "captured", "named"} {
		pkg, ud := udForFunc(t, src, fname)
		wantDead(t, pkg, ud)
	}
}

func TestUseDefRangeBindings(t *testing.T) {
	src := `package df

func f(xs []int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	return total
}

func g(xs []int) {
	for i := range xs {
		_ = i
	}
}
`
	pkg, ud := udForFunc(t, src, "f")
	wantDead(t, pkg, ud)
	// _ is not a variable; i is used by the blank assign's RHS.
	pkg, ud = udForFunc(t, src, "g")
	wantDead(t, pkg, ud)
}

func TestUseDefReachingDefsAtUse(t *testing.T) {
	src := `package df

func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}
`
	pkg, ud := udForFunc(t, src, "f")
	// Find the use of x in the return statement and check both defs
	// reach it.
	var useID *ast.Ident
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			if id, ok := ret.Results[0].(*ast.Ident); ok && id.Name == "x" {
				useID = id
			}
			return true
		})
	}
	if useID == nil {
		t.Fatal("no use of x in return found")
	}
	defs := ud.ReachingDefs(useID)
	if len(defs) != 2 {
		t.Fatalf("got %d reaching defs at return, want 2 (both branches)", len(defs))
	}
}

func TestUseDefDeterministicOrder(t *testing.T) {
	src := `package df

func f(c bool) int {
	a := 1
	b := 2
	a = 3
	b = 4
	if c {
		a = 5
	}
	return a + b
}
`
	pkg, ud := udForFunc(t, src, "f")
	first := deadNames(pkg, ud)
	for i := 0; i < 10; i++ {
		pkgN, udN := udForFunc(t, src, "f")
		got := deadNames(pkgN, udN)
		if len(got) != len(first) {
			t.Fatalf("run %d: dead defs %v, want %v", i, got, first)
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("run %d: dead defs %v, want %v", i, got, first)
			}
		}
		_ = pkgN
	}
	// And the expected content: a@4 and b@5 are overwritten unread.
	wantDead(t, pkg, ud, "a@4", "b@5")
}
