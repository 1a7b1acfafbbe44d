package benchrec

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func sampleFile(scale float64) *File {
	f := NewFile("2026-08-06T00:00:00Z", "abc1234", true)
	f.Benchmarks = []Benchmark{
		{Name: "CoreRunParallel", Samples: []float64{1000 * scale, 1100 * scale, 1050 * scale},
			NsPerOp: 1050 * scale, MADNs: 50 * scale, AllocsPerOp: 10, BytesPerOp: 2048},
		{Name: "GeolocBatchCached", Samples: []float64{200 * scale},
			NsPerOp: 200 * scale, MADNs: 0},
	}
	f.Counters = map[string]int64{"rex_compiled": 42}
	return f
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile(1)
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Commit != "abc1234" || !got.Quick {
		t.Fatalf("header drifted: %+v", got)
	}
	if len(got.Benchmarks) != 2 || got.Benchmarks[0].Name != "CoreRunParallel" {
		t.Fatalf("benchmarks drifted: %+v", got.Benchmarks)
	}
	if got.Benchmarks[0].MADNs != 50 || got.Counters["rex_compiled"] != 42 {
		t.Fatalf("stats drifted: %+v", got)
	}
}

func TestReadRejectsFutureSchema(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"schema": 99}`)); err == nil {
		t.Fatal("schema 99 accepted")
	}
	if _, err := Read(strings.NewReader(`{"schema": 0}`)); err == nil {
		t.Fatal("schema 0 accepted")
	}
	if _, err := Read(strings.NewReader(`{"schema": 1, "bogus_field": true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestCompareSelf: a record compared against itself reports no
// regressions — geobench -against's exit-0 case.
func TestCompareSelf(t *testing.T) {
	f := sampleFile(1)
	deltas, regressed := Compare(f, f, DefaultThreshold)
	if regressed {
		t.Fatalf("self-compare regressed: %+v", deltas)
	}
	for _, d := range deltas {
		if d.Verdict != Ok {
			t.Errorf("%s: verdict %s on identical records", d.Name, d.Verdict)
		}
		if d.Ratio != 1 {
			t.Errorf("%s: ratio = %v, want 1", d.Name, d.Ratio)
		}
	}
}

// TestCompareInjectedRegression: a synthetic 2x-slower candidate must
// fail the comparison — geobench -against's nonzero-exit case.
func TestCompareInjectedRegression(t *testing.T) {
	base := sampleFile(1)
	slow := sampleFile(2) // every sample and MAD doubled
	deltas, regressed := Compare(base, slow, DefaultThreshold)
	if !regressed {
		t.Fatalf("2x-slower candidate passed: %+v", deltas)
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["CoreRunParallel"]; d.Verdict != Regression || d.Ratio != 2 {
		t.Errorf("CoreRunParallel = %+v, want 2x REGRESSION", d)
	}
	// And the mirror image reports an improvement, not a failure.
	deltas, regressed = Compare(slow, base, DefaultThreshold)
	if regressed {
		t.Fatalf("2x-faster candidate flagged as regression: %+v", deltas)
	}
	for _, d := range deltas {
		if d.Verdict != Faster {
			t.Errorf("%s: verdict %s, want faster", d.Name, d.Verdict)
		}
	}
}

// TestCompareNoiseBound: a delta past the relative threshold but inside
// the combined MAD-based noise bound is not a regression — the gate
// that keeps noisy repeat runs from failing CI.
func TestCompareNoiseBound(t *testing.T) {
	base := NewFile("", "", false)
	base.Benchmarks = []Benchmark{{Name: "Noisy", NsPerOp: 1000, MADNs: 400}}
	cand := NewFile("", "", false)
	cand.Benchmarks = []Benchmark{{Name: "Noisy", NsPerOp: 1500, MADNs: 400}}
	// +50% > 30% threshold, but noise bound = 3*(400+400) = 2400ns > 500ns delta.
	deltas, regressed := Compare(base, cand, DefaultThreshold)
	if regressed || deltas[0].Verdict != Ok {
		t.Fatalf("noise-bounded delta flagged: %+v", deltas)
	}
	// Same medians with tight MADs do regress.
	base.Benchmarks[0].MADNs = 10
	cand.Benchmarks[0].MADNs = 10
	if _, regressed := Compare(base, cand, DefaultThreshold); !regressed {
		t.Fatal("tight-noise +50% delta not flagged")
	}
}

// TestCompareMembershipChanges: added/removed benchmarks are reported
// but never fail the run.
func TestCompareMembershipChanges(t *testing.T) {
	base := NewFile("", "", false)
	base.Benchmarks = []Benchmark{{Name: "Old", NsPerOp: 100}}
	cand := NewFile("", "", false)
	cand.Benchmarks = []Benchmark{{Name: "New", NsPerOp: 100}}
	deltas, regressed := Compare(base, cand, DefaultThreshold)
	if regressed {
		t.Fatal("membership change failed the comparison")
	}
	if len(deltas) != 2 {
		t.Fatalf("deltas = %+v, want one added and one removed", deltas)
	}
	verdicts := map[string]Verdict{}
	for _, d := range deltas {
		verdicts[d.Name] = d.Verdict
	}
	if verdicts["Old"] != Removed || verdicts["New"] != Added {
		t.Fatalf("verdicts = %v", verdicts)
	}
}

func TestMedianAndMAD(t *testing.T) {
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{1, 2, 3, 100}
	med := Median(xs)
	if got := MAD(xs, med); got != 1 {
		t.Errorf("MAD = %v, want 1 (outlier-immune)", got)
	}
}

func TestRecordFromBenchmarkResults(t *testing.T) {
	f := NewFile("", "", false)
	results := []testing.BenchmarkResult{
		{N: 10, T: 10 * time.Microsecond},
		{N: 10, T: 30 * time.Microsecond},
		{N: 10, T: 20 * time.Microsecond, Extra: map[string]float64{"workers": 4}},
	}
	f.Record("Example", results)
	b := f.Benchmarks[0]
	if b.NsPerOp != 2000 {
		t.Errorf("median ns/op = %v, want 2000", b.NsPerOp)
	}
	if b.MADNs != 1000 {
		t.Errorf("MAD = %v, want 1000", b.MADNs)
	}
	if b.Metrics["workers"] != 4 {
		t.Errorf("metrics = %v", b.Metrics)
	}
	if len(b.Samples) != 3 {
		t.Errorf("samples = %v", b.Samples)
	}
}

func TestFormatDeltas(t *testing.T) {
	deltas := []Delta{
		{Name: "A", Base: 1000, Cand: 2500, Ratio: 2.5, Verdict: Regression},
		{Name: "B", Cand: 100, Verdict: Added},
	}
	var buf bytes.Buffer
	if err := FormatDeltas(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"REGRESSION", "+150.0%", "added", "benchmark"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestCompareMetricExtrasNeverGate pins the extras policy documented on
// Benchmark.Metrics: a ReportMetric value moving arbitrarily — even a
// 10x p99_us blowup — surfaces as an informational note, never as a
// Regression verdict; one-sided extras are noted as added or removed.
func TestCompareMetricExtrasNeverGate(t *testing.T) {
	base := sampleFile(1)
	base.Benchmarks[0].Metrics = map[string]float64{"p99_us": 100, "workers": 4, "gone": 1}
	cand := sampleFile(1)
	cand.Benchmarks[0].Metrics = map[string]float64{"p99_us": 1000, "workers": 4, "fresh": 2}

	deltas, regressed := Compare(base, cand, 0)
	if regressed {
		t.Fatal("metric extras must never produce a Regression verdict")
	}
	var d *Delta
	for i := range deltas {
		if deltas[i].Name == "CoreRunParallel" {
			d = &deltas[i]
		}
	}
	if d == nil || d.Verdict != Ok {
		t.Fatalf("deltas = %+v", deltas)
	}
	want := []string{
		"fresh: added (2)",
		"gone: removed (was 1)",
		"p99_us: 100 -> 1000 (+900.0%)",
		"workers: 4 (unchanged)",
	}
	if len(d.Notes) != len(want) {
		t.Fatalf("notes = %v, want %v", d.Notes, want)
	}
	for i, n := range want {
		if d.Notes[i] != n {
			t.Errorf("note %d = %q, want %q", i, d.Notes[i], n)
		}
	}

	// The notes ride along in the rendered table, indented under their
	// benchmark's row.
	var buf bytes.Buffer
	if err := FormatDeltas(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "metric p99_us: 100 -> 1000 (+900.0%)") {
		t.Errorf("formatted deltas missing metric note:\n%s", buf.String())
	}
}
