package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/metrics.prom.golden instead of diffing")

// promGolden holds the admin plane's /metrics/prom body after
// adminFixture's query mix, its timed values masked.
const promGolden = "testdata/metrics.prom.golden"

// TestAdminPromGolden pins the exposition: every family name, HELP and
// TYPE line, label set, le bound and counter value. `go test
// ./cmd/geodns -run PromGolden -update` regenerates the file after an
// intentional change.
func TestAdminPromGolden(t *testing.T) {
	got := maskTimed(adminGet(t, adminFixture(t), "/metrics/prom").Body.String())
	if *update {
		if err := os.WriteFile(promGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(promGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics/prom differs from %s:\n%s", promGolden, got)
	}
}

// maskTimed replaces with "*" the value of every sample that depends
// on the clock or the Go runtime: the runtime gauges and the seconds
// families, except a seconds histogram's +Inf bucket and _count, which
// count queries.
func maskTimed(exposition string) string {
	lines := strings.SplitAfter(exposition, "\n")
	for i, line := range lines {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:sp]
		name, _, _ := strings.Cut(series, "{")
		timed := strings.Contains(name, "_runtime_") || strings.Contains(name, "_seconds")
		if timed && !strings.HasSuffix(name, "_count") && !strings.Contains(series, `le="+Inf"`) {
			lines[i] = series + " *\n"
		}
	}
	return strings.Join(lines, "")
}
