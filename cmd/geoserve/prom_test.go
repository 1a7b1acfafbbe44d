package main

import (
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"hoiho/internal/promexp"
)

// promServer builds a server with a request mix behind it: 3 geolocate
// hits (one batch), one 400, one health check.
func promServer(t *testing.T) *server {
	t.Helper()
	s := newServer(testIndex(t))
	postJSON(t, s, "/v1/geolocate", `{"hostname":"et-0.core1.sjc1.he.net"}`)
	postJSON(t, s, "/v1/geolocate", `{"hostnames":["a.core1.lhr1.he.net","b.unknown.org"]}`)
	postJSON(t, s, "/v1/geolocate", `{}`) // 400
	get(t, s, "/healthz")
	return s
}

// TestPromConformance is the text-exposition format gate, now enforced
// by the shared checker both daemons run: every sample belongs to a
// family announced by HELP and TYPE lines, label sets parse with valid
// escaping, and histogram bucket series are monotone cumulative over
// ascending le bounds ending at +Inf with _count equal to the +Inf
// bucket (promexp.Conform).
func TestPromConformance(t *testing.T) {
	s := promServer(t)
	w := get(t, s, "/metrics/prom")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != promexp.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, promexp.ContentType)
	}
	body := w.Body.String()
	if err := promexp.Conform(w.Body.Bytes()); err != nil {
		t.Errorf("exposition not conformant: %v\n%s", err, body)
	}
	if !strings.Contains(body, "_bucket{") {
		t.Error("no histogram buckets in exposition")
	}

	// The request mix must be visible: 5 requests, 1 bad, 3 hostnames,
	// 3 histogram observations. The runtime gauges are read at scrape
	// time, with no sampler started, and no span family remains.
	for _, want := range []string{
		"geoserve_requests_total 5",
		"geoserve_bad_requests_total 1",
		"geoserve_hostnames_total 3",
		`geoserve_request_duration_seconds_bucket{le="+Inf"} 3`,
		"geoserve_runtime_heap_bytes ",
		"geoserve_runtime_goroutines ",
		`geoserve_runtime_gc_pause_seconds{quantile="0.99"} `,
		`geoserve_runtime_sched_latency_seconds{quantile="0.99"} `,
		`geoserve_index_suffix_matches_total{suffix="he.net"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	if strings.Contains(body, "_span_") {
		t.Errorf("exposition still has a span family\n%s", body)
	}
}

// leLabel extracts the le label value from a bucket sample line.
func leLabel(t *testing.T, line string) string {
	t.Helper()
	m := regexp.MustCompile(`le="([^"]*)"`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("bucket sample without le label: %q", line)
	}
	return m[1]
}

// TestLatencyBucketOrder pins the numeric bucket order of the latency
// histogram: sorting the bounds as text would put "0.01" before
// "0.001" and "+Inf" first.
func TestLatencyBucketOrder(t *testing.T) {
	s := promServer(t)

	prom := get(t, s, "/metrics/prom").Body.String()
	var les []string
	for _, line := range strings.Split(prom, "\n") {
		if strings.HasPrefix(line, "geoserve_request_duration_seconds_bucket") {
			les = append(les, leLabel(t, line))
		}
	}
	if wantLes := []string{"0.0001", "0.001", "0.01", "0.1", "+Inf"}; fmt.Sprint(les) != fmt.Sprint(wantLes) {
		t.Errorf("prom le order = %v, want %v", les, wantLes)
	}
}

// TestRouteStatusClasses: the status-capturing writer attributes
// response classes per route.
func TestRouteStatusClasses(t *testing.T) {
	s := promServer(t) // 2 OK + 1 bad on /v1/geolocate, 1 OK on /healthz

	prom := get(t, s, "/metrics/prom").Body.String()
	for _, want := range []string{
		`geoserve_route_status_total{route="POST /v1/geolocate",class="2xx"} 2`,
		`geoserve_route_status_total{route="POST /v1/geolocate",class="4xx"} 1`,
		`geoserve_route_status_total{route="GET /healthz",class="2xx"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition missing %q\n%s", want, prom)
		}
	}
}

// TestStatusClass covers the bucketing helper's edges.
func TestStatusClass(t *testing.T) {
	for code, want := range map[int]string{
		200: "2xx", 204: "2xx", 301: "3xx", 400: "4xx", 404: "4xx",
		500: "5xx", 599: "5xx", 42: "other", 700: "other",
	} {
		if got := statusClasses[statusClass(code)]; got != want {
			t.Errorf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
}
