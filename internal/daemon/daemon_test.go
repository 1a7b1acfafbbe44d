package daemon

import (
	"bytes"
	"flag"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hoiho/internal/promexp"
)

// TestQlogFlags: without -qlog, Open returns the disabled (nil) logger;
// with it, the logger writes to the path and samples at -qlog-sample.
func TestQlogFlags(t *testing.T) {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	f := RegisterQlogFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	l, err := f.Open("test")
	if err != nil || l != nil {
		t.Fatalf("Open without -qlog = (%v, %v), want the nil logger", l, err)
	}

	fs = flag.NewFlagSet("daemon", flag.ContinueOnError)
	f = RegisterQlogFlags(fs)
	path := filepath.Join(t.TempDir(), "q.log")
	if err := fs.Parse([]string{"-qlog", path, "-qlog-sample", "3"}); err != nil {
		t.Fatal(err)
	}
	if l, err = f.Open("test"); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, l.NextID())
	}
	if got := strings.Join(ids, ","); got != "q1,,,q4" {
		t.Errorf("ids at -qlog-sample 3 = %s, want q1,,,q4", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeMetrics: the runtime collector reads the runtime at scrape
// time, with no sampler started, and renders exactly its four gauge
// families under the plane's prefix in a conformant exposition.
func TestRuntimeMetrics(t *testing.T) {
	reg := promexp.NewRegistry()
	reg.Register((&Plane{Name: "testd"}).RuntimeMetrics)
	var buf bytes.Buffer
	if err := reg.Render(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if err := promexp.Conform(buf.Bytes()); err != nil {
		t.Fatalf("exposition not conformant: %v\n%s", err, body)
	}
	var families []string
	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, f)
		} else if !strings.HasPrefix(line, "#") {
			series, v, _ := strings.Cut(line, " ")
			samples[series] = v
		}
	}
	want := []string{
		"testd_runtime_heap_bytes gauge",
		"testd_runtime_goroutines gauge",
		"testd_runtime_gc_pause_seconds gauge",
		"testd_runtime_sched_latency_seconds gauge",
	}
	if got := strings.Join(families, ","); got != strings.Join(want, ",") {
		t.Errorf("families = %s, want %s", got, strings.Join(want, ","))
	}
	for _, series := range []string{
		`testd_runtime_gc_pause_seconds{quantile="0.5"}`,
		`testd_runtime_gc_pause_seconds{quantile="0.99"}`,
		`testd_runtime_sched_latency_seconds{quantile="0.5"}`,
		`testd_runtime_sched_latency_seconds{quantile="0.99"}`,
	} {
		if _, ok := samples[series]; !ok {
			t.Errorf("exposition missing %s\n%s", series, body)
		}
	}
	for _, series := range []string{"testd_runtime_heap_bytes", "testd_runtime_goroutines"} {
		if v, err := strconv.ParseFloat(samples[series], 64); err != nil || v < 1 {
			t.Errorf("%s = %q, want a positive value", series, samples[series])
		}
	}
}
