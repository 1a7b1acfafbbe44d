// Prometheus text-exposition rendering for geoserve's /metrics/prom.
//
// The collectors here render the geoserve-only families — server
// totals, the /v1/geolocate latency histogram (as a proper cumulative
// `le`-bucketed histogram), and per-route counters with status classes
// — through the shared internal/promexp registry. The index, reload,
// query-log and runtime families come from internal/daemon, the same
// code cmd/geodns serves them with, so both daemons speak one
// exposition dialect under one conformance test.
package main

import (
	"hoiho/internal/promexp"
)

// promTotals renders the server-wide request counters.
func (s *server) promTotals(pw *promexp.Writer) {
	pw.Counter("geoserve_requests_total", "HTTP requests received, any route.",
		float64(s.requests.Load()))
	pw.Counter("geoserve_bad_requests_total", "Requests rejected with a 4xx status.",
		float64(s.badRequests.Load()))
	pw.Counter("geoserve_hostnames_total", "Hostnames submitted to /v1/geolocate.",
		float64(s.hostnames.Load()))
}

// promLatency renders the /v1/geolocate request-duration histogram.
func (s *server) promLatency(pw *promexp.Writer) {
	s.latency.Write(pw, "geoserve_request_duration_seconds",
		"Latency of /v1/geolocate requests.")
}

// promRoutes renders the per-route counters of every route that has
// served a request — request counts, cumulative handler seconds, and
// status-class counts — in registration order.
func (s *server) promRoutes(pw *promexp.Writer) {
	pw.Family("geoserve_route_requests_total", "Requests handled per route.", "counter")
	for _, rt := range s.routes {
		if n := rt.requests.Load(); n > 0 {
			pw.Sample("geoserve_route_requests_total", promexp.Labels("route", rt.pattern), float64(n))
		}
	}
	pw.Family("geoserve_route_seconds_total", "Cumulative handler time per route.", "counter")
	for _, rt := range s.routes {
		if rt.requests.Load() > 0 {
			pw.Sample("geoserve_route_seconds_total", promexp.Labels("route", rt.pattern), float64(rt.ns.Load())/1e9)
		}
	}
	pw.Family("geoserve_route_status_total", "Responses per route and status class.", "counter")
	for _, rt := range s.routes {
		for c := range rt.status {
			if n := rt.status[c].Load(); n > 0 {
				pw.Sample("geoserve_route_status_total",
					promexp.Labels("route", rt.pattern, "class", statusClasses[c]), float64(n))
			}
		}
	}
}
