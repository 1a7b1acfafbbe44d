package promexp

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestWriterRendering pins the exact bytes of each primitive: the
// HELP/TYPE pair, unlabeled and labeled samples, and value formatting.
func TestWriterRendering(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Counter("t_requests_total", "Requests received.", 5)
	w.Gauge("t_generation", "Serving generation.", 3)
	w.Family("t_matches_total", "Matches per suffix.", "counter")
	w.Sample("t_matches_total", Labels("suffix", "he.net"), 2)
	w.Sample("t_matches_total", Labels("suffix", `we"ird\net`+"\n"), 1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP t_requests_total Requests received.",
		"# TYPE t_requests_total counter",
		"t_requests_total 5",
		"# HELP t_generation Serving generation.",
		"# TYPE t_generation gauge",
		"t_generation 3",
		"# HELP t_matches_total Matches per suffix.",
		"# TYPE t_matches_total counter",
		`t_matches_total{suffix="he.net"} 2`,
		`t_matches_total{suffix="we\"ird\\net\n"} 1`,
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("rendering:\n got: %q\nwant: %q", got, want)
	}
	if err := Conform(buf.Bytes()); err != nil {
		t.Errorf("Conform rejects Writer output: %v", err)
	}
}

// TestHistogram: per-band counts in, cumulative monotone series out,
// with _count equal to the +Inf bucket.
func TestHistogram(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Histogram("t_latency_seconds", "Latency.", []float64{0.001, 0.01}, []int64{3, 2, 1}, 0.042)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP t_latency_seconds Latency.",
		"# TYPE t_latency_seconds histogram",
		`t_latency_seconds_bucket{le="0.001"} 3`,
		`t_latency_seconds_bucket{le="0.01"} 5`,
		`t_latency_seconds_bucket{le="+Inf"} 6`,
		"t_latency_seconds_sum 0.042",
		"t_latency_seconds_count 6",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("histogram:\n got: %q\nwant: %q", got, want)
	}
	if err := Conform(buf.Bytes()); err != nil {
		t.Errorf("Conform rejects histogram: %v", err)
	}
}

// TestHistogramShapePanics: a count slice that does not cover every
// band is a programming error, caught loudly.
func TestHistogramShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched counts did not panic")
		}
	}()
	NewWriter(&bytes.Buffer{}).Histogram("t_h", "h", []float64{1}, []int64{1}, 0)
}

// TestHistogramObserve: each value lands in the first band whose bound
// is at least it, concurrent observers lose no count, and the bounds
// and the sum render divided by the unit.
func TestHistogramObserve(t *testing.T) {
	h := NewHistogram(1e9, 100e3, 1e6) // nanoseconds, rendered in seconds
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range []int64{0, 100e3, 100e3 + 1, 1e6, 2e6} {
				h.Observe(v)
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	h.Write(w, "t_seconds", "Time.")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP t_seconds Time.",
		"# TYPE t_seconds histogram",
		`t_seconds_bucket{le="0.0001"} 8`,
		`t_seconds_bucket{le="0.001"} 16`,
		`t_seconds_bucket{le="+Inf"} 20`,
		"t_seconds_sum 0.012800004",
		"t_seconds_count 20",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("histogram:\n got: %q\nwant: %q", got, want)
	}
}

// TestLabelsPanicsOnOddArgs: static call-site shapes only.
func TestLabelsPanicsOnOddArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd Labels arity did not panic")
		}
	}()
	Labels("route")
}

// TestRegistryServeHTTP: collectors render in registration order with
// the exposition content type.
func TestRegistryServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Register(
		func(w *Writer) { w.Counter("t_first_total", "First.", 1) },
		func(w *Writer) { w.Counter("t_second_total", "Second.", 2) },
	)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/prom", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
	body := rec.Body.String()
	if first, second := strings.Index(body, "t_first_total"), strings.Index(body, "t_second_total"); first < 0 || second < 0 || second < first {
		t.Errorf("collectors out of registration order:\n%s", body)
	}
	if err := Conform(rec.Body.Bytes()); err != nil {
		t.Errorf("Conform rejects registry output: %v", err)
	}
}

// TestConformRejects tables the malformation classes the checker must
// catch — each one a way a future hand-rolled emitter could drift.
func TestConformRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // substring of the error
	}{
		{"sample without type", "t_x 1\n", "no TYPE"},
		{"type before help", "# TYPE t_x counter\nt_x 1\n", "before its HELP"},
		{"blank line", "# HELP t_x x\n# TYPE t_x counter\n\nt_x 1\n", "blank line"},
		{"unknown type", "# HELP t_x x\n# TYPE t_x summary\nt_x 1\n", "unknown type"},
		{"duplicate type", "# HELP t_x x\n# TYPE t_x counter\n# TYPE t_x counter\nt_x 1\n", "duplicate TYPE"},
		{"malformed sample", "# HELP t_x x\n# TYPE t_x counter\nt_x{bad 1\n", "malformed sample"},
		{
			"descending le",
			"# HELP t_h h\n# TYPE t_h histogram\n" +
				`t_h_bucket{le="0.01"} 1` + "\n" + `t_h_bucket{le="0.001"} 2` + "\n" +
				`t_h_bucket{le="+Inf"} 3` + "\nt_h_sum 0\nt_h_count 3\n",
			"not ascending",
		},
		{
			"non-monotone buckets",
			"# HELP t_h h\n# TYPE t_h histogram\n" +
				`t_h_bucket{le="0.001"} 5` + "\n" + `t_h_bucket{le="+Inf"} 3` + "\nt_h_sum 0\nt_h_count 3\n",
			"counts decrease",
		},
		{
			"missing +Inf",
			"# HELP t_h h\n# TYPE t_h histogram\n" +
				`t_h_bucket{le="0.001"} 1` + "\n" + `t_h_bucket{le="0.01"} 2` + "\nt_h_sum 0\nt_h_count 2\n",
			"does not end at +Inf",
		},
		{
			"count disagrees",
			"# HELP t_h h\n# TYPE t_h histogram\n" +
				`t_h_bucket{le="0.001"} 1` + "\n" + `t_h_bucket{le="+Inf"} 2` + "\nt_h_sum 0\nt_h_count 7\n",
			"_count 7",
		},
	}
	for _, tc := range cases {
		err := Conform([]byte(tc.body))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestConformAcceptsEmpty: a daemon with nothing registered serves an
// empty (but valid) document.
func TestConformAcceptsEmpty(t *testing.T) {
	if err := Conform(nil); err != nil {
		t.Errorf("empty exposition rejected: %v", err)
	}
}
