package lint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureDirs places directory-scoped fixtures inside their analyzer's
// scope; everything else type-checks as a module-root package.
var fixtureDirs = map[string]string{
	"droppederr.go":    "internal/geoloc",
	"envelopecheck.go": "cmd/geoserve",
}

// runFixtures analyzes every file in testdata/fixtures with all eleven
// analyzers and returns the rendered diagnostics, sorted.
func runFixtures(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fixtures", "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures found: %v", err)
	}
	sort.Strings(paths)
	var lines []string
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		base := filepath.Base(path)
		dir := fixtureDirs[base]
		if dir == "" {
			dir = "."
		}
		pkg, err := CheckSourceAt(base, dir, string(src))
		if err != nil {
			t.Fatalf("check %s: %v", path, err)
		}
		for _, d := range Run([]*Package{pkg}, All()) {
			lines = append(lines, d.String())
		}
	}
	return lines
}

// TestFixturesGolden pins the complete sorted file:line:col output of
// all eleven analyzers over the fixture corpus. Regenerate with
// -update after a deliberate analyzer change and review the diff.
func TestFixturesGolden(t *testing.T) {
	got := strings.Join(runFixtures(t), "\n") + "\n"
	goldenPath := filepath.Join("testdata", "fixtures", "golden.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics drifted from golden.\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}

// TestFixturesCoverEveryAnalyzer requires the corpus to exercise each
// analyzer: at least two distinct diagnostics for every v2 analyzer
// and at least one for the originals (which also have dedicated unit
// tests in lint_test.go).
func TestFixturesCoverEveryAnalyzer(t *testing.T) {
	counts := make(map[string]int)
	for _, line := range runFixtures(t) {
		// file:line:col: check: message
		parts := strings.SplitN(line, ": ", 3)
		if len(parts) < 3 {
			t.Fatalf("malformed diagnostic line %q", line)
		}
		counts[parts[1]]++
	}
	mins := map[string]int{
		"atomicmix":     2,
		"droppederr":    2,
		"envelopecheck": 2,
		"errsentinel":   2,
		"unlockpath":    2,
		"hotcompile":    1,
		"lazyinit":      1,
		"maporder":      1,
		"nakedgo":       1,
		"randsource":    1,
		"tickerstop":    1,
	}
	for check, min := range mins {
		if counts[check] < min {
			t.Errorf("fixture corpus produced %d %s diagnostic(s), want >= %d", counts[check], check, min)
		}
	}
}

// TestFixtureDirsExist keeps the scoping map honest: a renamed
// analyzer scope directory must not silently strand a fixture.
func TestFixtureDirsExist(t *testing.T) {
	for fixture, dir := range fixtureDirs {
		if _, err := os.Stat(filepath.Join("testdata", "fixtures", fixture)); err != nil {
			t.Errorf("fixtureDirs names missing fixture %s", fixture)
		}
		scoped := false
		for _, d := range append(append([]string{}, droppederrDirs...), envelopeDirs...) {
			if dir == d {
				scoped = true
			}
		}
		if !scoped {
			t.Errorf("fixture %s mapped to %s, which no analyzer scopes", fixture, dir)
		}
	}
}
