// Package lint is hoiho's project-specific static-analysis framework:
// a stdlib-only (go/parser + go/ast + go/types) analyzer harness that
// machine-enforces the determinism and concurrency invariants the
// pipeline depends on, instead of rediscovering their violations in
// review each PR.
//
// The framework loads every package in the module, type-checks them in
// dependency order (project packages against each other, standard
// library packages from source), and runs each registered Analyzer over
// the selected packages. Diagnostics carry file:line:column positions,
// are reported in deterministic sorted order, and can be suppressed at
// a specific line with a justified comment:
//
//	//lint:ignore <check> <reason>
//
// The comment suppresses findings of <check> on its own line and on the
// line immediately following (so it works both as a trailing comment
// and as a standalone comment above the flagged statement). A reason is
// mandatory: an ignore without one is itself reported, because an
// unexplained suppression is exactly the unreviewable state the tool
// exists to prevent.
//
// Test files (*_test.go) are exempt from analysis: the invariants the
// checks enforce — deterministic output, race-free lazy caches, no
// per-request compilation, joined goroutines, seeded randomness — are
// production-path properties, and the test suite asserts determinism
// behaviorally instead.
package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding: a check name, a position, and a message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Package is one parsed and type-checked package under analysis.
type Package struct {
	// Path is the package's import path ("hoiho/internal/rex").
	Path string
	// Dir is the package directory relative to the module root
	// ("internal/rex"; "." for the module root itself).
	Dir string
	// Fset positions all files of all packages loaded together.
	Fset *token.FileSet
	// Files are the package's non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package. A package that fails to
	// type-check is never analyzed: loading it returns the error.
	Types *types.Package
	// Info holds the type-checker's expression and identifier facts,
	// through which analyzers resolve every call and type they match.
	Info *types.Info

	// suppressions maps file name -> line -> checks suppressed there.
	suppressions map[string]map[int][]string
	// malformed records lint:ignore comments missing a check or reason.
	malformed []Diagnostic
	// cfgs memoizes one control-flow graph per function body, shared
	// by every flow-aware analyzer that visits the package.
	cfgs map[*ast.BlockStmt]*CFG
}

// newPackage builds an empty Package with its suppression table ready,
// so collectSuppressions never lazily initializes shared state.
func newPackage(path, dir string, fset *token.FileSet) *Package {
	return &Package{
		Path:         path,
		Dir:          dir,
		Fset:         fset,
		suppressions: make(map[string]map[int][]string),
		cfgs:         make(map[*ast.BlockStmt]*CFG),
	}
}

// An Analyzer is one named check. Run inspects a package and reports
// findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass couples a package with an analyzer invocation's reporter.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at n's position.
func (p *Pass) Reportf(n ast.Node, format string, args ...any) {
	pos := p.Pkg.Fset.Position(n.Pos())
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     pos,
		Check:   p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// ExprString renders an expression compactly for diagnostics ("res.NCs").
func (p *Pass) ExprString(e ast.Expr) string { return ExprString(p.Pkg.Fset, e) }

// TypeOf returns the type of e, or nil for an expression the type
// checker records no type for (a package name, a blank identifier).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// callee returns the package path and name of the package-level
// function call resolves to ("regexp", "MustCompile"), or two empty
// strings for a method, a builtin, a conversion or a call through a
// function value. The function is read from Info.Uses, so an import
// alias or a local variable that shadows a package name needs no
// special handling.
func (p *Pass) callee(call *ast.CallExpr) (path, name string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", ""
	}
	fn, ok := p.Pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// isNamed reports whether t or *t is one of the named types, each given
// as "path.Name" ("sync.Mutex", "net/http.Request").
func isNamed(t types.Type, names ...string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return slices.Contains(names, named.Obj().Pkg().Path()+"."+named.Obj().Name())
}

// FuncCFG returns the control-flow graph for a function body, building
// it on first request and memoizing it on the package so every
// flow-aware analyzer shares one graph per function.
func (p *Pass) FuncCFG(body *ast.BlockStmt) *CFG {
	if c, ok := p.Pkg.cfgs[body]; ok {
		return c
	}
	c := BuildCFG(body)
	p.Pkg.cfgs[body] = c
	return c
}

// ExprString renders an expression through go/printer.
func ExprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, fset, e); err != nil {
		return fmt.Sprintf("%T", e)
	}
	return b.String()
}

// All returns the registered analyzers, sorted by name.
func All() []*Analyzer {
	as := []*Analyzer{
		Atomicmix(),
		Droppederr(),
		Envelopecheck(),
		Errsentinel(),
		Hotcompile(),
		Lazyinit(),
		Maporder(),
		Nakedgo(),
		Randsource(),
		Tickerstop(),
		Unlockpath(),
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// Run executes the analyzers over the packages and returns the
// surviving diagnostics — suppressed findings removed, malformed
// suppression comments added — sorted by file, line, column, check.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, analyzer: a, diags: &diags}
			a.Run(pass)
		}
		diags = append(diags, pkg.malformed...)
	}
	seen := make(map[Diagnostic]bool, len(diags))
	kept := diags[:0]
	for _, d := range diags {
		if seen[d] {
			continue
		}
		seen[d] = true
		suppressed := false
		for _, pkg := range pkgs {
			if pkg.suppressed(d) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return kept
}

// suppressed reports whether d is covered by a lint:ignore comment in
// this package's files.
func (pkg *Package) suppressed(d Diagnostic) bool {
	lines, ok := pkg.suppressions[d.Pos.Filename]
	if !ok {
		return false
	}
	for _, check := range lines[d.Pos.Line] {
		if check == d.Check {
			return true
		}
	}
	return false
}

// collectSuppressions scans a file's comments for lint:ignore
// directives, populating the package's suppression table and recording
// malformed directives as diagnostics. newPackage initialized the
// suppression table, so there is no lazy path here.
func (pkg *Package) collectSuppressions(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:ignore") {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
			if len(fields) < 2 {
				pkg.malformed = append(pkg.malformed, Diagnostic{
					Pos:     pos,
					Check:   "lintdirective",
					Message: "malformed lint:ignore: want `//lint:ignore <check> <reason>` (the reason is mandatory)",
				})
				continue
			}
			check := fields[0]
			byLine := pkg.suppressions[pos.Filename]
			if byLine == nil {
				byLine = make(map[int][]string)
				pkg.suppressions[pos.Filename] = byLine
			}
			// The directive covers its own line (trailing comment) and
			// the next line (standalone comment above the statement).
			byLine[pos.Line] = append(byLine[pos.Line], check)
			byLine[pos.Line+1] = append(byLine[pos.Line+1], check)
		}
	}
}
