// The geodns admin plane: a plain-HTTP sidecar listener (-admin-addr)
// carrying the operational surface that does not belong on the DNS
// port — Prometheus text exposition, a liveness document, and pprof.
// Everything but the DNS-specific query, limiter and EDNS families is
// internal/daemon's, shared with geoserve.
package main

import (
	"net/http"

	"hoiho/internal/daemon"
	"hoiho/internal/dnsserve"
	"hoiho/internal/promexp"
)

// newAdmin wires /metrics/prom, /healthz, and /debug/pprof/ for a
// running dnsserve.Server.
func newAdmin(s *dnsserve.Server, p *daemon.Plane) http.Handler {
	m := dnsMetrics{s}
	reg := promexp.NewRegistry()
	reg.Register(m.queries, m.limiter, m.edns, p.IndexMetrics, p.ReloadMetrics, p.QlogMetrics,
		p.RuntimeMetrics)
	mux := http.NewServeMux()
	mux.Handle("GET /metrics/prom", reg)
	mux.HandleFunc("GET /healthz", p.Healthz)
	daemon.RegisterPprof(mux)
	return mux
}

// dnsMetrics renders the DNS-specific families of a running server.
type dnsMetrics struct{ s *dnsserve.Server }

// queries renders the per-query counter taxonomy: total queries,
// per-outcome response counts (the same names the query log and the
// shutdown stats line use), TCP close errors, and TCP connections
// refused at the connection cap.
func (m dnsMetrics) queries(pw *promexp.Writer) {
	st := m.s.Stats()
	pw.Counter("geodns_queries_total", "DNS queries received, UDP and TCP.",
		float64(st["queries"]))
	pw.Family("geodns_responses_total", "Responses per outcome (rcode taxonomy).", "counter")
	for _, k := range promexp.SortedKeys(st) {
		if k == "queries" || k == "close_errors" || k == "tcp_refused" {
			continue
		}
		pw.Sample("geodns_responses_total", promexp.Labels("outcome", k), float64(st[k]))
	}
	pw.Counter("geodns_tcp_close_errors_total", "TCP connections that failed to close cleanly.",
		float64(st["close_errors"]))
	pw.Counter("geodns_tcp_refused_total", "TCP connections closed unserved because the connection cap was reached.",
		float64(st["tcp_refused"]))
}

// limiter renders the rate limiter's refusals and capacity-sweep
// evictions.
func (m dnsMetrics) limiter(pw *promexp.Writer) {
	pw.Counter("geodns_limiter_refused_total", "Queries refused by the per-source rate limit.",
		float64(m.s.Stats()["refused"]))
	pw.Counter("geodns_limiter_evictions_total", "Limiter buckets dropped by capacity sweeps.",
		float64(m.s.LimiterEvictions()))
}

// edns renders the negotiated UDP response-size histogram.
func (m dnsMetrics) edns(pw *promexp.Writer) {
	bounds, counts, sum := m.s.EDNSSizes()
	pw.Histogram("geodns_edns_udp_size_bytes",
		"Negotiated UDP response size limit per query (EDNS).",
		bounds, counts, float64(sum))
}
