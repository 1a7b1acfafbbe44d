// Prometheus text-exposition rendering for geoserve's /metrics/prom.
//
// The collectors here render the geoserve-only families — server
// totals, the /v1/geolocate latency histogram (as a proper cumulative
// `le`-bucketed histogram), per-route counters with status classes,
// span aggregates, and the runtime-telemetry sampler's latest snapshot
// — through the shared internal/promexp registry. The index, reload
// and query-log families come from internal/daemon, the same code
// cmd/geodns serves them with, so both daemons speak one exposition
// dialect under one conformance test.
package main

import (
	"hoiho/internal/promexp"
)

const promContentType = promexp.ContentType

// promTotals renders the server-wide request counters.
func (s *server) promTotals(pw *promexp.Writer) {
	pw.Counter("geoserve_requests_total", "HTTP requests received, any route.",
		float64(s.requests.Load()))
	pw.Counter("geoserve_bad_requests_total", "Requests rejected with a 4xx status.",
		float64(s.badRequests.Load()))
	pw.Counter("geoserve_hostnames_total", "Hostnames submitted to /v1/geolocate.",
		float64(s.hostnames.Load()))
}

// promLatency renders the request-duration histogram from its per-band
// counts, the shape promexp.Writer.Histogram cumulates from.
func (s *server) promLatency(pw *promexp.Writer) {
	bounds := make([]float64, len(latencyBuckets))
	counts := make([]int64, len(s.latency))
	for i, b := range latencyBuckets {
		bounds[i] = b.le.Seconds()
	}
	for i := range s.latency {
		counts[i] = s.latency[i].Load()
	}
	pw.Histogram("geoserve_request_duration_seconds", "Latency of /v1/geolocate requests.",
		bounds, counts, float64(s.latSumUS.Load())/1e6)
}

// promRoutes renders the per-route counters of every route that has
// served a request — request counts, cumulative handler seconds, and
// status-class counts — in registration order. Span-name ("stage") rows
// from the shared tracer are exported too — lookup-batch,
// geoloc-compile, reload, and the http spans of requests the query log
// keeps — so index and pipeline cost is scrapeable.
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
	stages := s.tracer.Summary().Stages
	pw.Family("geoserve_span_count_total", "Finished spans per stage.", "counter")
	for _, row := range stages {
		pw.Sample("geoserve_span_count_total", promexp.Labels("span", row.Name), float64(row.Count))
	}
	pw.Family("geoserve_span_seconds_total", "Cumulative span time per stage.", "counter")
	for _, row := range stages {
		pw.Sample("geoserve_span_seconds_total", promexp.Labels("span", row.Name), float64(row.TotalUS)/1e6)
	}
}

// promRuntime renders the newest runtime-telemetry sample as gauges.
// Nothing is emitted when the sampler is off (families with no samples
// are omitted entirely, per the format).
func (s *server) promRuntime(pw *promexp.Writer) {
	samples := s.tracer.RuntimeSamples()
	if len(samples) == 0 {
		return
	}
	latest := samples[len(samples)-1]
	pw.Gauge("geoserve_runtime_heap_bytes", "Heap bytes in use at the last runtime sample.",
		float64(latest.HeapBytes))
	pw.Gauge("geoserve_runtime_goroutines", "Goroutines at the last runtime sample.",
		float64(latest.Goroutines))
	pw.Family("geoserve_runtime_gc_pause_seconds", "GC pause quantiles at the last runtime sample.", "gauge")
	pw.Sample("geoserve_runtime_gc_pause_seconds", promexp.Labels("quantile", "0.5"), latest.GCPauseP50US/1e6)
	pw.Sample("geoserve_runtime_gc_pause_seconds", promexp.Labels("quantile", "0.99"), latest.GCPauseP99US/1e6)
	pw.Family("geoserve_runtime_sched_latency_seconds", "Scheduler latency quantiles at the last runtime sample.", "gauge")
	pw.Sample("geoserve_runtime_sched_latency_seconds", promexp.Labels("quantile", "0.5"), latest.SchedLatP50US/1e6)
	pw.Sample("geoserve_runtime_sched_latency_seconds", promexp.Labels("quantile", "0.99"), latest.SchedLatP99US/1e6)
}
