package obs

import (
	"bytes"
	"runtime/metrics"
	"strings"
	"testing"
	"time"
)

// TestRuntimeSamplerNilTracer: starting the sampler on a nil tracer is
// inert — no goroutine, no samples, stop is callable.
func TestRuntimeSamplerNilTracer(t *testing.T) {
	var tr *Tracer
	stop := tr.StartRuntimeSampler(RuntimeOptions{})
	stop()
	stop() // idempotent
	if s := tr.RuntimeSamples(); s != nil {
		t.Fatalf("nil tracer RuntimeSamples = %v, want nil", s)
	}
}

// TestRuntimeSamplerOffByDefault: a tracer that never starts the
// sampler holds no samples — runtime telemetry is strictly opt-in.
func TestRuntimeSamplerOffByDefault(t *testing.T) {
	tr := New(Options{})
	sp := tr.Start("run")
	sp.End()
	if s := tr.RuntimeSamples(); s != nil {
		t.Fatalf("RuntimeSamples without sampler = %v, want nil", s)
	}
}

// TestRuntimeSamplerRecords: the synchronous first sample means even an
// immediate stop leaves one plausible snapshot in the ring.
func TestRuntimeSamplerRecords(t *testing.T) {
	tr := New(Options{})
	stop := tr.StartRuntimeSampler(RuntimeOptions{Interval: time.Hour})
	stop()
	samples := tr.RuntimeSamples()
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1 (the synchronous first sample)", len(samples))
	}
	s := samples[0]
	if s.HeapBytes == 0 {
		t.Error("sample has zero heap bytes")
	}
	if s.Goroutines < 1 {
		t.Errorf("sample reports %d goroutines, want >= 1", s.Goroutines)
	}
}

// TestRuntimeSamplerTicks: with a short interval the background
// goroutine keeps appending until stopped.
func TestRuntimeSamplerTicks(t *testing.T) {
	tr := New(Options{})
	stop := tr.StartRuntimeSampler(RuntimeOptions{Interval: time.Millisecond})
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for len(tr.RuntimeSamples()) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sampler recorded %d samples in 5s, want >= 3", len(tr.RuntimeSamples()))
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	n := len(tr.RuntimeSamples())
	time.Sleep(5 * time.Millisecond)
	if got := len(tr.RuntimeSamples()); got != n {
		t.Fatalf("sampler still recording after stop: %d -> %d", n, got)
	}
}

// TestRuntimeSamplerRingWraps: the ring keeps only the newest samples
// it has room for, oldest first.
func TestRuntimeSamplerRingWraps(t *testing.T) {
	tr := New(Options{})
	tr.rtMu.Lock()
	tr.rtRing = make([]RuntimeSample, 3)
	tr.rtMu.Unlock()
	for i := 0; i < 7; i++ {
		tr.sampleRuntime()
		tr.rtMu.Lock()
		tr.rtRing[(tr.rtNext+len(tr.rtRing)-1)%len(tr.rtRing)].ElapsedUS = int64(i)
		tr.rtMu.Unlock()
	}
	got := tr.RuntimeSamples()
	if len(got) != 3 {
		t.Fatalf("ring holds %d samples, want 3", len(got))
	}
	for i, want := range []int64{4, 5, 6} {
		if got[i].ElapsedUS != want {
			t.Fatalf("sample %d elapsed = %d, want %d (oldest-first order)", i, got[i].ElapsedUS, want)
		}
	}
}

// TestRuntimeSamplerFrozenClock: under FrozenClock the only
// deterministic field — elapsed time — is pinned to zero, matching the
// golden-trace configuration.
func TestRuntimeSamplerFrozenClock(t *testing.T) {
	tr := New(Options{Clock: FrozenClock})
	stop := tr.StartRuntimeSampler(RuntimeOptions{Interval: time.Hour})
	stop()
	for _, s := range tr.RuntimeSamples() {
		if s.ElapsedUS != 0 {
			t.Fatalf("frozen-clock sample elapsed = %d, want 0", s.ElapsedUS)
		}
	}
}

// TestRuntimeSamplesExcludedFromExport: runtime samples never appear in
// the deterministic span export — the golden-trace contract is
// untouched by the sampler.
func TestRuntimeSamplesExcludedFromExport(t *testing.T) {
	tr := New(Options{Clock: FrozenClock, RetainSpans: true})
	stop := tr.StartRuntimeSampler(RuntimeOptions{Interval: time.Hour})
	sp := tr.Start("run")
	sp.End()
	stop()
	recs := tr.Export()
	if len(recs) != 1 || recs[0].Name != "run" {
		t.Fatalf("export = %+v, want exactly the run span", recs)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "heap") {
		t.Fatalf("runtime telemetry leaked into the span trace:\n%s", buf.String())
	}
}

// TestHistQuantile exercises the bucket-walk on a hand-built histogram.
func TestHistQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{0, 10, 80, 10},
		Buckets: []float64{0, 1, 2, 3, 4},
	}
	if got := histQuantile(h, 0.50); got != 2 {
		t.Errorf("p50 = %v, want 2 (lower edge of the 80-count bucket)", got)
	}
	if got := histQuantile(h, 0.99); got != 3 {
		t.Errorf("p99 = %v, want 3", got)
	}
	if got := histQuantile(&metrics.Float64Histogram{}, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	empty := &metrics.Float64Histogram{Counts: []uint64{0, 0}, Buckets: []float64{0, 1, 2}}
	if got := histQuantile(empty, 0.5); got != 0 {
		t.Errorf("zero-count histogram quantile = %v, want 0", got)
	}
}

// TestFormatRuntimeSamples pins the -runtimestats table shape.
func TestFormatRuntimeSamples(t *testing.T) {
	var buf strings.Builder
	if err := FormatRuntimeSamples(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no samples") {
		t.Fatalf("empty history output = %q", buf.String())
	}
	buf.Reset()
	samples := []RuntimeSample{{ElapsedUS: 1500, HeapBytes: 1 << 20, Goroutines: 7, GCPauseP99US: 120}}
	if err := FormatRuntimeSamples(&buf, samples); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"heap", "goroutines", "1048576", "7", "1.5ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
