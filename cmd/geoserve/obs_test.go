package main

import (
	"net/http"
	"strings"
	"testing"
)

// TestMetricsRoutes exercises the per-route counters: after a mix of
// requests, /metrics/prom must report a row per route pattern with
// accurate request counts.
func TestMetricsRoutes(t *testing.T) {
	s := newServer(testIndex(t))

	postJSON(t, s, "/v1/geolocate", `{"hostname":"et-0.core1.sjc1.he.net"}`)
	postJSON(t, s, "/v1/geolocate", `{"hostnames":["a.core1.lhr1.he.net","b.unknown.org"]}`)
	get(t, s, "/healthz")
	w := get(t, s, "/metrics/prom")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	prom := w.Body.String()
	for _, want := range []string{
		`geoserve_route_requests_total{route="POST /v1/geolocate"} 2`,
		`geoserve_route_status_total{route="POST /v1/geolocate",class="2xx"} 2`,
		`geoserve_route_requests_total{route="GET /healthz"} 1`,
	} {
		if !strings.Contains(prom, want+"\n") {
			t.Errorf("exposition missing %q\n%s", want, prom)
		}
	}
	// The scrape itself is counted once its handler returns: it
	// appears in later scrapes, not this one.
	if strings.Contains(prom, `route="GET /metrics/prom"`) {
		t.Error("in-flight /metrics/prom request leaked into its own snapshot")
	}
	prom = get(t, s, "/metrics/prom").Body.String()
	if want := `geoserve_route_requests_total{route="GET /metrics/prom"} 1`; !strings.Contains(prom, want) {
		t.Errorf("exposition missing %q\n%s", want, prom)
	}
}

// TestPprofEndpoints checks the profiling routes are wired: the index
// page and a heap profile respond 200 on the server's own mux (nothing
// relies on http.DefaultServeMux).
func TestPprofEndpoints(t *testing.T) {
	s := newServer(testIndex(t))
	if w := get(t, s, "/debug/pprof/"); w.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d, want 200", w.Code)
	}
	w := get(t, s, "/debug/pprof/heap?debug=1")
	if w.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/heap = %d, want 200", w.Code)
	}
	if w := get(t, s, "/debug/pprof/cmdline"); w.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline = %d, want 200", w.Code)
	}
}
