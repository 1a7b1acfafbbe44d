package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// LoadModule parses and type-checks every package of the Go module
// rooted at root. All packages are loaded (cross-package type
// information needs the full graph); callers select which ones to
// analyze with Match. Packages are returned sorted by import path.
//
// Type checking is self-contained: project packages are checked in
// dependency order against each other, and standard-library imports
// are type-checked from GOROOT source via go/importer's "source"
// compiler — no export data, no golang.org/x/tools. The first package
// that fails to type-check fails the load, naming the package and its
// first error: every analyzer matches calls and types through the type
// checker, so a package without type information would silently lose
// its findings.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	byPath := make(map[string]*Package, len(dirs))
	var paths []string
	for _, dir := range dirs {
		pkg, err := parseDir(fset, root, modPath, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil { // no non-test Go files
			continue
		}
		byPath[pkg.Path] = pkg
		paths = append(paths, pkg.Path)
	}
	sort.Strings(paths)

	order, err := topoOrder(modPath, byPath, paths)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*types.Package, len(order)),
	}
	for _, path := range order {
		pkg := byPath[path]
		if err := typeCheck(fset, imp, pkg); err != nil {
			return nil, err
		}
		imp.pkgs[path] = pkg.Types
	}

	out := make([]*Package, 0, len(paths))
	for _, path := range paths {
		out = append(out, byPath[path])
	}
	return out, nil
}

// Match reports whether the package (by module-relative directory)
// matches a Go-style package pattern: "./..." selects everything,
// "./cmd/..." a subtree, and "./internal/rex" (or "internal/rex") a
// single package.
func Match(dir, pattern string) bool {
	pattern = strings.TrimPrefix(pattern, "./")
	if pattern == "..." || pattern == "" {
		return true
	}
	if rest, ok := strings.CutSuffix(pattern, "/..."); ok {
		return dir == rest || strings.HasPrefix(dir, rest+"/")
	}
	return dir == pattern || dir == strings.TrimSuffix(pattern, "/")
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// packageDirs returns every directory under root that may hold a
// package, excluding VCS metadata, testdata, and hidden directories.
// Paths are relative to root and sorted.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		dirs = append(dirs, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses the non-test Go files of one directory into a
// Package (nil when the directory has none). File names are processed
// in sorted order so positions and diagnostics are deterministic.
func parseDir(fset *token.FileSet, root, modPath, dir string) (*Package, error) {
	abs := filepath.Join(root, filepath.FromSlash(dir))
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	path := modPath
	if dir != "." {
		path = modPath + "/" + dir
	}
	pkg := newPackage(path, dir, fset)
	for _, name := range names {
		file := filepath.Join(abs, name)
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.collectSuppressions(f)
	}
	return pkg, nil
}

// topoOrder sorts the project packages so every package is
// type-checked after its intra-module imports.
func topoOrder(modPath string, byPath map[string]*Package, paths []string) ([]string, error) {
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(paths))
	var order []string
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = visiting
		pkg := byPath[path]
		for _, imp := range moduleImports(modPath, pkg) {
			if _, ok := byPath[imp]; !ok {
				return fmt.Errorf("lint: %s imports %s, which has no Go files", path, imp)
			}
			if err := visit(imp); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, path)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImports returns the package's intra-module imports, sorted and
// deduplicated.
func moduleImports(modPath string, pkg *Package) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != modPath && !strings.HasPrefix(path, modPath+"/") {
				continue
			}
			if !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// moduleImporter resolves intra-module imports from the already
// type-checked packages and everything else (the standard library)
// from GOROOT source.
type moduleImporter struct {
	modPath string
	std     types.Importer
	pkgs    map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		if p := m.pkgs[path]; p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("lint: module package %s not yet type-checked", path)
	}
	return m.std.Import(path)
}

// typeCheck runs go/types over the package and attaches the result.
func typeCheck(fset *token.FileSet, imp types.Importer, pkg *Package) error {
	pkg.Info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp}
	var err error
	if pkg.Types, err = conf.Check(pkg.Path, fset, pkg.Files, pkg.Info); err != nil {
		return fmt.Errorf("lint: %s: type error: %w", pkg.Path, err)
	}
	return nil
}

// checkSource's fileset and importer are shared across calls so the
// standard library is type-checked from source only once per process;
// the mutex serializes access because the source importer is not
// documented as concurrency-safe.
var (
	checkSourceMu   sync.Mutex
	checkSourceFset = token.NewFileSet()
	checkSourceImp  = importer.ForCompiler(checkSourceFset, "source", nil)
)

// CheckSource parses and type-checks a single in-memory file as its
// own package — the fixture harness for analyzer unit tests. Imports
// are restricted to the standard library.
func CheckSource(filename, src string) (*Package, error) {
	return CheckSourceAt(filename, ".", src)
}

// CheckSourceAt is CheckSource with an explicit module-relative
// directory, so tests can place a fixture inside the scope of a
// directory-gated analyzer (droppederr's syntactic layer,
// envelopecheck).
func CheckSourceAt(filename, dir, src string) (*Package, error) {
	checkSourceMu.Lock()
	defer checkSourceMu.Unlock()
	f, err := parser.ParseFile(checkSourceFset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	pkg := newPackage(f.Name.Name, dir, checkSourceFset)
	pkg.Files = []*ast.File{f}
	pkg.collectSuppressions(f)
	if err := typeCheck(checkSourceFset, checkSourceImp, pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}
