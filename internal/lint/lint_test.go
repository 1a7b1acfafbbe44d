package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCheck type-checks one fixture file and runs a single analyzer
// over it, returning the surviving diagnostics.
func runCheck(t *testing.T, a *Analyzer, filename, src string) []Diagnostic {
	t.Helper()
	return runCheckAt(t, a, filename, ".", src)
}

// runCheckAt is runCheck with the fixture placed in a module-relative
// directory, inside the scope of a directory-gated analyzer.
func runCheckAt(t *testing.T, a *Analyzer, filename, dir, src string) []Diagnostic {
	t.Helper()
	pkg, err := CheckSourceAt(filename, dir, src)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	return Run([]*Package{pkg}, []*Analyzer{a})
}

func wantFindings(t *testing.T, diags []Diagnostic, check string, lines ...int) {
	t.Helper()
	if len(diags) != len(lines) {
		t.Fatalf("got %d finding(s), want %d: %v", len(diags), len(lines), diags)
	}
	for i, d := range diags {
		if d.Check != check {
			t.Errorf("finding %d: check = %q, want %q", i, d.Check, check)
		}
		if d.Pos.Line != lines[i] {
			t.Errorf("finding %d: line = %d, want %d (%s)", i, d.Pos.Line, lines[i], d)
		}
	}
}

func TestMaporderFlagged(t *testing.T) {
	src := `package fix

import "fmt"

func printAll(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

func collect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`
	diags := runCheck(t, Maporder(), "maporder_flagged.go", src)
	wantFindings(t, diags, "maporder", 6, 13)
}

func TestMaporderClean(t *testing.T) {
	src := `package fix

import (
	"fmt"
	"sort"
)

// The collect-keys, sort, iterate idiom: the append target is sorted.
func sorted(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

// Writing into another map is order-insensitive.
func invert(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// sort.Slice as evidence, and a loop-local append target.
func pairs(m map[string]int) [][2]string {
	var out [][2]string
	for k := range m {
		out = append(out, [2]string{k, "x"})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
`
	if diags := runCheck(t, Maporder(), "maporder_clean.go", src); len(diags) != 0 {
		t.Fatalf("clean fixture flagged: %v", diags)
	}
}

// TestLazyinitCatchesRexCachePattern deliberately re-introduces the
// PR-1 rex.Regex lazy-cache bug — a compiled-regexp field populated
// under a bare nil check on a pointer receiver — and requires lazyinit
// to catch it.
func TestLazyinitCatchesRexCachePattern(t *testing.T) {
	src := `package fix

import "regexp"

type Regex struct {
	pattern  string
	compiled *regexp.Regexp
}

func (r *Regex) Compile() (*regexp.Regexp, error) {
	if r.compiled == nil {
		re, err := regexp.Compile(r.pattern)
		if err != nil {
			return nil, err
		}
		r.compiled = re
	}
	return r.compiled, nil
}
`
	diags := runCheck(t, Lazyinit(), "lazyinit_rex.go", src)
	wantFindings(t, diags, "lazyinit", 11)
}

func TestLazyinitEarlyReturnForm(t *testing.T) {
	src := `package fix

type box struct{ v []int }

func (b *box) get() []int {
	if b.v != nil {
		return b.v
	}
	b.v = make([]int, 8)
	return b.v
}
`
	diags := runCheck(t, Lazyinit(), "lazyinit_earlyreturn.go", src)
	wantFindings(t, diags, "lazyinit", 6)
}

func TestLazyinitClean(t *testing.T) {
	src := `package fix

import (
	"regexp"
	"sync"
)

type guarded struct {
	mu       sync.Mutex
	once     sync.Once
	compiled *regexp.Regexp
}

// Mutex-guarded lazy init is fine.
func (g *guarded) withLock() *regexp.Regexp {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.compiled == nil {
		g.compiled = regexp.MustCompile("x")
	}
	return g.compiled
}

// sync.Once is the sanctioned pattern.
func (g *guarded) withOnce() *regexp.Regexp {
	g.once.Do(func() {
		g.compiled = regexp.MustCompile("x")
	})
	return g.compiled
}

// Locals constructed in the function cannot race.
func local() []int {
	var v []int
	if v == nil {
		v = make([]int, 4)
	}
	return v
}
`
	if diags := runCheck(t, Lazyinit(), "lazyinit_clean.go", src); len(diags) != 0 {
		t.Fatalf("clean fixture flagged: %v", diags)
	}
}

func TestHotcompileFlagged(t *testing.T) {
	src := `package fix

import (
	"net/http"
	"regexp"
)

func inLoop(patterns []string) int {
	n := 0
	for _, p := range patterns {
		re := regexp.MustCompile(p)
		n += re.NumSubexp()
	}
	return n
}

func handler(w http.ResponseWriter, r *http.Request) {
	re, err := regexp.Compile(r.URL.Query().Get("re"))
	if err == nil && re.MatchString(r.URL.Path) {
		w.WriteHeader(http.StatusOK)
	}
}
`
	diags := runCheck(t, Hotcompile(), "hotcompile_flagged.go", src)
	wantFindings(t, diags, "hotcompile", 11, 18)
}

func TestHotcompileClean(t *testing.T) {
	src := `package fix

import "regexp"

// Package-level compilation runs once.
var hostRe = regexp.MustCompile("^[a-z]+$")

// Build-time compilation outside any loop or handler is fine.
func build(pattern string) (*regexp.Regexp, error) {
	return regexp.Compile(pattern)
}

// Reusing a compiled regex inside a loop is the point.
func countMatches(hosts []string) int {
	n := 0
	for _, h := range hosts {
		if hostRe.MatchString(h) {
			n++
		}
	}
	return n
}
`
	if diags := runCheck(t, Hotcompile(), "hotcompile_clean.go", src); len(diags) != 0 {
		t.Fatalf("clean fixture flagged: %v", diags)
	}
}

func TestNakedgoFlagged(t *testing.T) {
	src := `package fix

func fireAndForget(work func()) {
	go work()
}
`
	diags := runCheck(t, Nakedgo(), "nakedgo_flagged.go", src)
	wantFindings(t, diags, "nakedgo", 4)
}

func TestNakedgoClean(t *testing.T) {
	src := `package fix

import "sync"

// WaitGroup-joined workers.
func pool(jobs []func()) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j func()) {
			defer wg.Done()
			j()
		}(j)
	}
	wg.Wait()
}

// Channel-joined goroutine.
func withResult(f func() error) error {
	errc := make(chan error, 1)
	go func() { errc <- f() }()
	return <-errc
}
`
	if diags := runCheck(t, Nakedgo(), "nakedgo_clean.go", src); len(diags) != 0 {
		t.Fatalf("clean fixture flagged: %v", diags)
	}
}

// TestNakedgoStructFieldWaitGroup covers the struct-field pattern: the
// spawning method registers with s.wg.Add and the matching Wait lives
// in another method. The Add on a (possibly embedded or pointer-held)
// sync.WaitGroup is join evidence; the spawn must not be flagged.
func TestNakedgoStructFieldWaitGroup(t *testing.T) {
	src := `package fix

import "sync"

type server struct {
	wg sync.WaitGroup
}

func (s *server) start(loop func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		loop()
	}()
}

// The harder shape: the goroutine body is a method call, so the Done
// is invisible here — only the Add accounts for the spawn.
func (s *server) startOpaque(loop func()) {
	s.wg.Add(1)
	go loop()
}

type holder struct {
	wg *sync.WaitGroup
}

// Pointer-held WaitGroup field counts too.
func (h *holder) launch(f func()) {
	h.wg.Add(1)
	go f()
}

func (s *server) close() {
	s.wg.Wait()
}
`
	if diags := runCheck(t, Nakedgo(), "nakedgo_structwg.go", src); len(diags) != 0 {
		t.Fatalf("struct-field WaitGroup join flagged: %v", diags)
	}
}

// TestNakedgoNonWaitGroupAdd is the counter-fixture: an Add call on
// something that is not a sync.WaitGroup (an atomic counter here) is
// not join discipline, so the naked spawn is still flagged.
func TestNakedgoNonWaitGroupAdd(t *testing.T) {
	src := `package fix

import "sync/atomic"

type stats struct {
	launched atomic.Int64
}

func (s *stats) fire(f func()) {
	s.launched.Add(1)
	go f()
}
`
	diags := runCheck(t, Nakedgo(), "nakedgo_counteradd.go", src)
	wantFindings(t, diags, "nakedgo", 11)
}

func TestRandsourceFlagged(t *testing.T) {
	src := `package fix

import "math/rand"

func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

func pick(n int) int { return rand.Intn(n) }
`
	diags := runCheck(t, Randsource(), "randsource_flagged.go", src)
	wantFindings(t, diags, "randsource", 6, 9)
}

func TestRandsourceClean(t *testing.T) {
	src := `package fix

import "math/rand"

func pick(seed int64, n int) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(n)
}
`
	if diags := runCheck(t, Randsource(), "randsource_clean.go", src); len(diags) != 0 {
		t.Fatalf("clean fixture flagged: %v", diags)
	}
}

func TestRandsourceExemptPackages(t *testing.T) {
	src := `package fix

import "math/rand"

func pick(n int) int { return rand.Intn(n) }
`
	pkg, err := CheckSource("randsource_exempt.go", src)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	pkg.Dir = "internal/synth"
	if diags := Run([]*Package{pkg}, []*Analyzer{Randsource()}); len(diags) != 0 {
		t.Fatalf("exempt package flagged: %v", diags)
	}
}

func TestSuppression(t *testing.T) {
	src := `package fix

import "fmt"

func printAll(m map[string]int) {
	//lint:ignore maporder diagnostic output where order is irrelevant
	for k, v := range m {
		fmt.Println(k, v)
	}
}

func printTrailing(m map[string]int) {
	for k, v := range m { //lint:ignore maporder same-line suppression
		fmt.Println(k, v)
	}
}
`
	if diags := runCheck(t, Maporder(), "suppress.go", src); len(diags) != 0 {
		t.Fatalf("suppressed findings survived: %v", diags)
	}
}

func TestSuppressionWrongCheckDoesNotApply(t *testing.T) {
	src := `package fix

import "fmt"

func printAll(m map[string]int) {
	//lint:ignore nakedgo wrong check name on purpose
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`
	diags := runCheck(t, Maporder(), "suppress_wrong.go", src)
	wantFindings(t, diags, "maporder", 7)
}

func TestMalformedSuppressionIsReported(t *testing.T) {
	src := `package fix

import "fmt"

func printAll(m map[string]int) {
	//lint:ignore maporder
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`
	diags := runCheck(t, Maporder(), "suppress_malformed.go", src)
	if len(diags) != 2 {
		t.Fatalf("got %d finding(s), want 2 (maporder + lintdirective): %v", len(diags), diags)
	}
	var checks []string
	for _, d := range diags {
		checks = append(checks, d.Check)
	}
	got := strings.Join(checks, ",")
	if got != "lintdirective,maporder" {
		t.Fatalf("checks = %s, want lintdirective,maporder", got)
	}
}

// TestMatchesThroughTypeChecker pins that analyzers name a standard
// library function or type by what the type checker resolves, not by
// the file's import name or an identifier's spelling: a local variable
// named like a package raises nothing, and an aliased import hides
// nothing.
func TestMatchesThroughTypeChecker(t *testing.T) {
	cases := []struct {
		name     string
		analyzer *Analyzer
		dir      string
		src      string
		lines    []int
	}{
		{"local_var_named_rand", Randsource(), ".", `package fix

import "math/rand"

type src struct{}

func (src) Intn(n int) int { return n - 1 }

func seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func pick() int {
	rand := src{}
	return rand.Intn(3)
}
`, nil},
		{"aliased_sort", Maporder(), ".", `package fix

import s "sort"

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	s.Strings(out)
	return out
}
`, nil},
		{"aliased_os_open", Droppederr(), "internal/geoloc", `package fix

import (
	"io"
	xos "os"
)

func read(path string) ([]byte, error) {
	f, err := xos.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
`, nil},
		{"aliased_fmt", Maporder(), ".", `package fix

import f "fmt"

func dump(m map[string]int) {
	for k := range m {
		f.Println(k)
	}
}
`, []int{6}},
		{"aliased_http_error", Envelopecheck(), "cmd/geoserve", `package fix

import h "net/http"

func handle(w h.ResponseWriter, r *h.Request) {
	h.Error(w, "bad request", 400)
}
`, []int{6}},
		{"aliased_http_handler", Hotcompile(), ".", `package fix

import (
	h "net/http"
	"regexp"
)

func handle(w h.ResponseWriter, pattern string) {
	if regexp.MustCompile(pattern).MatchString("x") {
		w.WriteHeader(200)
	}
}
`, []int{9}},
		{"aliased_strings", Errsentinel(), ".", `package fix

import str "strings"

func isTimeout(err error) bool {
	return str.Contains(err.Error(), "timeout")
}
`, []int{6}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			diags := runCheckAt(t, c.analyzer, c.name+".go", c.dir, c.src)
			wantFindings(t, diags, c.analyzer.Name, c.lines...)
		})
	}
}

func TestMatch(t *testing.T) {
	cases := []struct {
		dir, pattern string
		want         bool
	}{
		{"internal/rex", "./...", true},
		{".", "./...", true},
		{"internal/rex", "./internal/...", true},
		{"internal/rex", "internal/...", true},
		{"cmd/hoiho", "./internal/...", false},
		{"internal/rex", "./internal/rex", true},
		{"internal/rexx", "./internal/rex", false},
		{"internal/rex/sub", "./internal/rex", false},
		{"internal/rex/sub", "./internal/rex/...", true},
	}
	for _, c := range cases {
		if got := Match(c.dir, c.pattern); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.dir, c.pattern, got, c.want)
		}
	}
}

// TestLoadModule builds a throwaway two-package module and checks that
// cross-package type information flows: a map type defined in one
// package must be recognized by maporder when ranged in another.
func TestLoadModule(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.test\n\ngo 1.22\n")
	write("table/table.go", `package table

// Table is a map type ranged by the dependent package.
type Table struct{ Rows map[string]int }
`)
	write("use/use.go", `package use

import (
	"fmt"

	"example.test/table"
)

func Dump(t *table.Table) {
	for k, v := range t.Rows {
		fmt.Println(k, v)
	}
}
`)
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2: %+v", len(pkgs), pkgs)
	}
	diags := Run(pkgs, []*Analyzer{Maporder()})
	if len(diags) != 1 || diags[0].Check != "maporder" {
		t.Fatalf("got %v, want one maporder finding in use/use.go", diags)
	}
	if !strings.HasSuffix(diags[0].Pos.Filename, "use/use.go") {
		t.Fatalf("finding in %s, want use/use.go", diags[0].Pos.Filename)
	}
}

// TestAllSortedAndNamed pins the registry: eleven analyzers, sorted,
// each documented.
func TestAllSortedAndNamed(t *testing.T) {
	as := All()
	if len(as) != 11 {
		t.Fatalf("got %d analyzers, want 11", len(as))
	}
	var names []string
	for _, a := range as {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
		names = append(names, a.Name)
	}
	want := "atomicmix,droppederr,envelopecheck,errsentinel,hotcompile,lazyinit,maporder,nakedgo,randsource,tickerstop,unlockpath"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("analyzers = %s, want %s", got, want)
	}
}
