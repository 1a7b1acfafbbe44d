package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/metrics.prom.golden instead of diffing")

// promGolden holds geoserve's /metrics/prom body after promServer's
// request mix and one unknown /v1 path, its timed values masked.
const promGolden = "testdata/metrics.prom.golden"

// TestPromGolden pins the exposition: every family name, HELP and TYPE
// line, label set, le bound and counter value. `go test ./cmd/geoserve
// -run PromGolden -update` regenerates the file after an intentional
// change.
func TestPromGolden(t *testing.T) {
	s := promServer(t)
	postJSON(t, s, "/v1/nope", `{}`) // the mux's 404, rewritten into the envelope
	got := maskTimed(get(t, s, "/metrics/prom").Body.String())
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
// count requests.
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
