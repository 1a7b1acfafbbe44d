package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"hoiho/internal/daemon"
	"hoiho/internal/geoloc"
	"hoiho/internal/promexp"
	"hoiho/internal/qlog"
)

// maxBatch bounds one POST /v1/geolocate request; larger workloads
// paginate. The bound keeps a single request from pinning the server on
// one client's megabatch.
const maxBatch = 10000

// maxNameLen is the longest hostname in text form (RFC 1035 §2.3.4,
// without the root dot).
const maxNameLen = 253

// maxBodyBytes bounds a /v1 POST body: a full batch of maximum-length
// names, each quoted and comma-separated, plus room for the object
// around them. Decoding stops there, so one client cannot make the
// server buffer an unbounded body before maxBatch is checked.
const maxBodyBytes = int64(maxBatch*(maxNameLen+len(`"",`)) + 1<<10)

// server is the geoserve HTTP API over a hot-swappable compiled lookup
// index. Lookups go through plane.Live — an atomic pointer to the
// current Index — so a reload never blocks or fails a request: handlers
// load the pointer once, the swap is a single atomic store, and the old
// index drains as in-flight requests finish (see DESIGN.md §10).
// Request counters are atomics on the server and its routes, the one
// store /metrics/prom renders.
type server struct {
	plane  daemon.Plane   // live index, query log, /healthz, shared collectors
	src    *geoloc.Source // reload input; nil disables /v1/admin/reload
	ixOpts geoloc.Options // options every reload compiles with
	mux    *http.ServeMux
	prom   *promexp.Registry // /metrics/prom collectors
	routes []*routeCounters  // registered routes, in registration order

	requests    atomic.Int64
	badRequests atomic.Int64
	hostnames   atomic.Int64
	latency     *promexp.Histogram // /v1/geolocate handler time, ns
}

// routeCounters are one registered endpoint's request counters.
type routeCounters struct {
	pattern  string
	requests atomic.Int64
	ns       atomic.Int64                     // cumulative handler time
	status   [len(statusClasses)]atomic.Int64 // responses per status class
	latency  *promexp.Histogram               // observes each handler time, if set
}

func newServer(ix *geoloc.Index) *server {
	s := &server{
		plane: daemon.Plane{Name: "geoserve", Live: geoloc.NewLive(ix), Start: time.Now()},
		mux:   http.NewServeMux(),
		prom:  promexp.NewRegistry(),
		latency: promexp.NewHistogram(float64(time.Second), int64(100*time.Microsecond),
			int64(time.Millisecond), int64(10*time.Millisecond), int64(100*time.Millisecond)),
	}
	s.prom.Register(s.promTotals, s.promLatency, s.plane.IndexMetrics, s.plane.ReloadMetrics,
		s.promRoutes, s.plane.QlogMetrics, s.plane.RuntimeMetrics)
	s.route("POST /v1/geolocate", s.handleGeolocate).latency = s.latency
	s.route("GET /v1/explain", s.handleExplain)
	s.route("POST /v1/explain", s.handleExplain)
	s.route("POST /v1/admin/reload", s.handleReload)
	s.route("GET /healthz", s.plane.Healthz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /metrics/prom", s.prom.ServeHTTP)
	daemon.RegisterPprof(s.mux)
	return s
}

// enableReload arms the hot-reload path: subsequent SIGHUPs and POSTs
// to /v1/admin/reload re-resolve src with opts and swap the result in.
func (s *server) enableReload(src *geoloc.Source, opts geoloc.Options) {
	s.src, s.ixOpts = src, opts
}

// enableQlog attaches the sampled query log. Must be called before the
// server handles traffic; a nil logger leaves logging disabled at zero
// cost (every qlog call on the request path is a nil-receiver no-op).
func (s *server) enableQlog(l *qlog.Logger) {
	s.plane.Qlog = l
}

// route registers a handler that counts its requests, handler time and
// response status classes (captured by a statusWriter) under the route
// pattern, and returns those counters. Profiling routes stay unwrapped
// — a 30-second CPU profile would dominate every latency aggregate.
func (s *server) route(pattern string, h http.HandlerFunc) *routeCounters {
	rt := &routeCounters{pattern: pattern}
	s.routes = append(s.routes, rt)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		// Only a request the query log keeps gets an id and a record;
		// for the rest, and for all of them with qlog off, NextID
		// returns "" and nothing allocates.
		id := s.plane.Qlog.NextID()
		t0 := time.Now()
		sw, ok := w.(*statusWriter) // ServeHTTP wraps every /v1 request
		if !ok {
			sw = &statusWriter{ResponseWriter: w, code: http.StatusOK}
		}
		h(sw, r)
		d := time.Since(t0)
		class := statusClass(sw.code)
		rt.requests.Add(1)
		rt.ns.Add(int64(d))
		rt.status[class].Add(1)
		if rt.latency != nil {
			rt.latency.Observe(int64(d))
		}
		if id == "" {
			return
		}
		s.plane.Qlog.Log(qlog.Record{
			Front:      "http",
			Op:         pattern,
			ID:         id,
			Hostname:   sw.hostname,
			Source:     r.RemoteAddr,
			Status:     sw.code,
			Outcome:    statusClasses[class],
			DurUS:      int64(d / time.Microsecond),
			Generation: s.plane.Live.Generation(),
		})
	})
	return rt
}

// statusWriter captures the status code a handler writes (200 when the
// handler never calls WriteHeader explicitly) and carries the looked-up
// hostname back out to the query-log record for single-hostname ops
// (set via logHostname; batch requests leave it empty). On a /v1
// request it also rewrites the mux's built-in plain-text errors
// (unknown path → 404, wrong method → 405) into the envelope, keeping
// the status code and any Allow header the mux set.
type statusWriter struct {
	http.ResponseWriter
	code     int
	hostname string
	v1       *server // set on /v1 requests, whose 404s and 405s it rewrites
	rewrote  bool    // the envelope replaced the mux's error body
}

// logHostname records the hostname a single-lookup handler served, so
// the route middleware's query-log record carries it. A no-op when the
// middleware did not wrap the writer (profiling routes, tests driving
// handlers directly).
func logHostname(w http.ResponseWriter, hostname string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.hostname = hostname
	}
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	switch {
	case w.v1 != nil && code == http.StatusNotFound:
		w.rewrote = true
		w.v1.writeError(w.ResponseWriter, code, "not_found", "no such endpoint")
	case w.v1 != nil && code == http.StatusMethodNotAllowed:
		w.rewrote = true
		w.v1.writeError(w.ResponseWriter, code, "method_not_allowed", "method not allowed for this endpoint")
	default:
		w.ResponseWriter.WriteHeader(code)
	}
}

// Write swallows the mux's plain-text body once the envelope has been
// written in its place.
func (w *statusWriter) Write(p []byte) (int, error) {
	if w.rewrote {
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

// statusClasses name the buckets statusClass sorts status codes into.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx", "other"}

// statusClass returns the index in statusClasses of a status code's
// class.
func statusClass(code int) int {
	if code < 100 || code > 599 {
		return len(statusClasses) - 1
	}
	return code/100 - 1
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		if r.Method == http.MethodPost {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		// The mux's own 404/405 responses are plain text; under /v1 they
		// are rewritten into the JSON error envelope so every API error
		// has one shape. route() counts the request through the same
		// writer.
		w = &statusWriter{ResponseWriter: w, code: http.StatusOK, v1: s}
	}
	s.mux.ServeHTTP(w, r)
}

// apiError is the uniform /v1 error envelope: every error response is
// {"error":{"code":...,"message":...}} with a stable machine-readable
// code and a human-readable message (documented in README "Errors").
type apiError struct {
	Error apiErrorDetail `json:"error"`
}

type apiErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError emits the envelope with the given status. 4xx responses
// count as bad_requests in /metrics.
func (s *server) writeError(w http.ResponseWriter, status int, code, msg string) {
	if status >= 400 && status < 500 {
		s.badRequests.Add(1)
	}
	writeJSON(w, status, apiError{apiErrorDetail{Code: code, Message: msg}})
}

// lookupRequest is the /v1/geolocate body: exactly one of hostname
// (single) or hostnames (batch).
type lookupRequest struct {
	Hostname  string   `json:"hostname,omitempty"`
	Hostnames []string `json:"hostnames,omitempty"`
}

func (s *server) handleGeolocate(w http.ResponseWriter, r *http.Request) {
	// One pointer load per request: the whole request is served by a
	// single index generation even if a swap lands mid-flight.
	ix := s.plane.Live.Index()
	req, ok := s.readLookupRequest(w, r)
	if !ok {
		return
	}
	single := req.Hostname != ""
	batch := len(req.Hostnames) > 0
	switch {
	case single == batch:
		s.writeError(w, http.StatusBadRequest, "invalid_request",
			`exactly one of "hostname" and "hostnames" is required`)
	case batch && len(req.Hostnames) > maxBatch:
		s.writeError(w, http.StatusBadRequest, "batch_too_large",
			fmt.Sprintf("batch exceeds %d hostnames", maxBatch))
	case tooLong(req.Hostname) || slices.ContainsFunc(req.Hostnames, tooLong):
		s.writeError(w, http.StatusBadRequest, "hostname_too_long",
			fmt.Sprintf("hostname exceeds %d bytes", maxNameLen))
	case single:
		s.hostnames.Add(1)
		logHostname(w, req.Hostname)
		g, _ := ix.Lookup(req.Hostname)
		p := getBuf()
		*p = append(appendResult(*p, req.Hostname, g), '\n')
		writeReply(w, *p)
		putBuf(p)
	default:
		s.hostnames.Add(int64(len(req.Hostnames)))
		p := getBuf()
		b := append(*p, `{"results":[`...)
		for i, g := range ix.LookupBatch(req.Hostnames) {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendResult(b, req.Hostnames[i], g)
		}
		*p = append(b, "]}\n"...)
		writeReply(w, *p)
		putBuf(p)
	}
}

// tooLong reports whether name is longer than a hostname can be, one
// trailing root dot not counted. Such a name is refused before it
// reaches the index, so it never becomes a result-cache key.
func tooLong(name string) bool {
	return len(strings.TrimSuffix(name, ".")) > maxNameLen
}

// explainRequest is the POST /v1/explain body; GET passes ?hostname=.
type explainRequest struct {
	Hostname string `json:"hostname"`
}

// handleExplain serves the full decision trace for one hostname: why
// it resolved where it did (or didn't) — suffix dispatch, every regex
// tried, overlay-vs-dictionary resolution, and the convention's
// published PPV evidence. JSON by default; `?format=text` returns the
// same deterministic report `hoiho -explain` prints.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var hostname string
	if r.Method == http.MethodGet {
		hostname = r.URL.Query().Get("hostname")
	} else {
		var req explainRequest
		if !s.decode(w, r.Body, &req) {
			return
		}
		hostname = req.Hostname
	}
	switch {
	case hostname == "":
		s.writeError(w, http.StatusBadRequest, "invalid_request",
			`"hostname" is required`)
		return
	case tooLong(hostname):
		s.writeError(w, http.StatusBadRequest, "hostname_too_long",
			fmt.Sprintf("hostname exceeds %d bytes", maxNameLen))
		return
	}
	logHostname(w, hostname)
	ex := s.plane.Live.Index().Explain(hostname)
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		writeJSON(w, http.StatusOK, ex)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		//lint:ignore droppederr the status line is already on the wire; a write failure means the client hung up
		w.Write([]byte(ex.Text()))
	default:
		s.writeError(w, http.StatusBadRequest, "unknown_format",
			fmt.Sprintf("unknown format %q (want json or text)", f))
	}
}

// decode reads a /v1 JSON body into v, answering a malformed or
// oversized body with its error envelope; it reports whether v was
// filled.
func (s *server) decode(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		s.writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	default:
		s.writeError(w, http.StatusBadRequest, "malformed_request",
			fmt.Sprintf("malformed request: %v", err))
	}
	return false
}

// reloadStatus is the success body of /v1/admin/reload.
type reloadStatus struct {
	Status string `json:"status"`
	geoloc.ReloadStatus
}

func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.src == nil {
		s.writeError(w, http.StatusServiceUnavailable, "reload_unavailable",
			"no reloadable source configured")
		return
	}
	st, err := s.plane.Live.Reload(s.src, s.ixOpts)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "reload_failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, reloadStatus{"ok", st})
}

// handleMetrics serves the index's lookup counters as one JSON object,
// {"index":{...}}. Every counter is also on /metrics/prom; this route
// stays only while perfbench's traced run reads its cache counters
// here.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Index geoloc.Stats `json:"index"`
	}{s.plane.Live.Stats()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	//lint:ignore droppederr the status line is already on the wire; an Encode failure means the client hung up
	enc.Encode(v)
}
