package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/geodict"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
	"hoiho/internal/psl"
)

// TestMetricsRoutes exercises the per-route counters: after a mix of
// requests, /metrics must report a row per route pattern with accurate
// request counts, and /metrics/prom the index's lookup-batch span when
// the server shares the index's tracer.
func TestMetricsRoutes(t *testing.T) {
	res, err := core.ReadConventions(strings.NewReader(testConventions))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(obs.Options{})
	ix, err := geoloc.New(res, geoloc.Options{
		Dict: geodict.MustDefault(), PSL: psl.MustDefault(), Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newTracedServer(ix, tr)

	postJSON(t, s, "/v1/geolocate", `{"hostname":"et-0.core1.sjc1.he.net"}`)
	postJSON(t, s, "/v1/geolocate", `{"hostnames":["a.core1.lhr1.he.net","b.unknown.org"]}`)
	get(t, s, "/healthz")
	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var m struct {
		Routes map[string]routeJSON `json:"routes"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics is not JSON: %v\n%s", err, w.Body)
	}
	if r := m.Routes["POST /v1/geolocate"]; r.Requests != 2 || r.Status["2xx"] != 2 {
		t.Errorf("geolocate route row = %+v, want 2 requests", r)
	}
	if r := m.Routes["GET /healthz"]; r.Requests != 1 {
		t.Errorf("healthz route row = %+v, want 1 request", r)
	}
	// The /metrics request itself is counted once its handler returns:
	// it appears in later scrapes, not this one.
	if _, ok := m.Routes["GET /metrics"]; ok {
		t.Error("in-flight /metrics request leaked into its own snapshot")
	}
	prom := get(t, s, "/metrics/prom").Body.String()
	for _, want := range []string{
		`geoserve_route_requests_total{route="GET /metrics"} 1`,
		`geoserve_span_count_total{span="lookup-batch"} 1`,
		`geoserve_span_count_total{span="geoloc-compile"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition missing %q\n%s", want, prom)
		}
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
