package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/daemon"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
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
// store both /metrics renderings read.
type server struct {
	plane  daemon.Plane   // live index, query log, /healthz, shared collectors
	src    *geoloc.Source // reload input; nil disables /v1/admin/reload
	ixOpts geoloc.Options // options every reload compiles with
	mux    *http.ServeMux
	tracer *obs.Tracer       // aggregate-only: sampled requests, index builds, reloads
	prom   *promexp.Registry // /metrics/prom collectors
	routes []*routeCounters  // registered routes, in registration order

	requests    atomic.Int64
	badRequests atomic.Int64
	hostnames   atomic.Int64
	// /v1/geolocate latency: requests per band of latencyBuckets (the
	// last slot is +Inf) and their summed duration.
	latency  [len(latencyBuckets) + 1]atomic.Int64
	latSumUS atomic.Int64
}

// routeCounters are one registered endpoint's request counters.
type routeCounters struct {
	pattern  string
	requests atomic.Int64
	ns       atomic.Int64                     // cumulative handler time
	status   [len(statusClasses)]atomic.Int64 // responses per status class
}

func newServer(ix *geoloc.Index) *server {
	// Aggregate-only tracing: the daemon keeps span rollups forever but
	// never retains raw spans, so memory stays constant no matter how
	// long it serves.
	return newTracedServer(ix, obs.New(obs.Options{}))
}

// newTracedServer wires an externally-built tracer, letting main share
// one tracer between the index (compile + batch spans) and the routes.
func newTracedServer(ix *geoloc.Index, tr *obs.Tracer) *server {
	s := &server{
		plane:  daemon.Plane{Name: "geoserve", Live: geoloc.NewLive(ix), Start: time.Now()},
		mux:    http.NewServeMux(),
		tracer: tr,
	}
	s.prom = promexp.NewRegistry()
	s.prom.Register(s.promTotals, s.promLatency, s.plane.IndexMetrics, s.plane.ReloadMetrics,
		s.promRoutes, s.plane.QlogMetrics, s.promRuntime)
	s.route("POST /v1/geolocate", s.handleGeolocate)
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
// pattern. Profiling routes stay unwrapped — a 30-second CPU profile
// would dominate every latency aggregate.
func (s *server) route(pattern string, h http.HandlerFunc) {
	rt := &routeCounters{pattern: pattern}
	s.routes = append(s.routes, rt)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		// A request the query log keeps gets an id, stamped on both its
		// record and an "http" span, so a slow span in a trace joins
		// against the access-log line that caused it. Other requests, and
		// all of them with qlog off, open no span: NextID returns "" and
		// nothing allocates.
		id := s.plane.Qlog.NextID()
		var sp *obs.Span
		if id != "" {
			sp = s.tracer.Start("http")
			sp.SetKey(pattern)
			sp.SetAttr("request_id", id)
		}
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		d := time.Since(t0)
		class := statusClass(sw.code)
		rt.requests.Add(1)
		rt.ns.Add(int64(d))
		rt.status[class].Add(1)
		if id == "" {
			return
		}
		sp.End()
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
}

// statusWriter captures the status code a handler writes (200 when the
// handler never calls WriteHeader explicitly) and carries the looked-up
// hostname back out to the query-log record for single-hostname ops
// (set via logHostname; batch requests leave it empty).
type statusWriter struct {
	http.ResponseWriter
	code     int
	hostname string
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
	w.ResponseWriter.WriteHeader(code)
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
		// has one shape.
		w = &v1ErrorWriter{ResponseWriter: w, srv: s}
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

// v1ErrorWriter rewrites the mux's built-in plain-text error responses
// (unknown /v1 path → 404, wrong method → 405) into the envelope,
// preserving the status code and any Allow header the mux set.
type v1ErrorWriter struct {
	http.ResponseWriter
	srv         *server
	intercepted bool
}

func (w *v1ErrorWriter) WriteHeader(status int) {
	if status != http.StatusNotFound && status != http.StatusMethodNotAllowed {
		w.ResponseWriter.WriteHeader(status)
		return
	}
	w.intercepted = true
	w.srv.badRequests.Add(1)
	code, msg := "not_found", "no such endpoint"
	if status == http.StatusMethodNotAllowed {
		code, msg = "method_not_allowed", "method not allowed for this endpoint"
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	w.ResponseWriter.WriteHeader(status)
	enc := json.NewEncoder(w.ResponseWriter)
	enc.SetEscapeHTML(false)
	//lint:ignore droppederr an Encode failure here means the client disconnected; the response is already committed
	enc.Encode(apiError{apiErrorDetail{Code: code, Message: msg}})
}

// Write swallows the original plain-text body once the envelope has
// been written in its place.
func (w *v1ErrorWriter) Write(p []byte) (int, error) {
	if w.intercepted {
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

// lookupRequest is the /v1/geolocate body: exactly one of hostname
// (single) or hostnames (batch).
type lookupRequest struct {
	Hostname  string   `json:"hostname,omitempty"`
	Hostnames []string `json:"hostnames,omitempty"`
}

// lookupResult is the JSON shape of one geolocated hostname.
type lookupResult struct {
	Hostname string        `json:"hostname"`
	Located  bool          `json:"located"`
	Suffix   string        `json:"suffix,omitempty"`
	Hint     string        `json:"hint,omitempty"`
	Type     string        `json:"type,omitempty"`
	Learned  bool          `json:"learned,omitempty"`
	Location *locationJSON `json:"location,omitempty"`
}

type locationJSON struct {
	City    string  `json:"city"`
	Region  string  `json:"region,omitempty"`
	Country string  `json:"country"`
	Lat     float64 `json:"lat"`
	Long    float64 `json:"long"`
}

type batchResponse struct {
	Results []lookupResult `json:"results"`
}

func toResult(hostname string, g *core.Geolocation) lookupResult {
	if g == nil {
		return lookupResult{Hostname: hostname}
	}
	return lookupResult{
		Hostname: hostname,
		Located:  true,
		Suffix:   g.Suffix,
		Hint:     g.Hint,
		Type:     g.Type.String(),
		Learned:  g.Learned,
		Location: &locationJSON{
			City: g.Loc.City, Region: g.Loc.Region, Country: g.Loc.Country,
			Lat: g.Loc.Pos.Lat, Long: g.Loc.Pos.Long,
		},
	}
}

func (s *server) handleGeolocate(w http.ResponseWriter, r *http.Request) {
	defer s.observeLatency(time.Now())
	// One pointer load per request: the whole request is served by a
	// single index generation even if a swap lands mid-flight.
	ix := s.plane.Live.Index()
	var req lookupRequest
	if !s.decode(w, r, &req) {
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
	case single:
		s.hostnames.Add(1)
		logHostname(w, req.Hostname)
		g, _ := ix.Lookup(req.Hostname)
		writeJSON(w, http.StatusOK, toResult(req.Hostname, g))
	default:
		s.hostnames.Add(int64(len(req.Hostnames)))
		resp := batchResponse{Results: make([]lookupResult, len(req.Hostnames))}
		for i, g := range ix.LookupBatch(req.Hostnames) {
			resp.Results[i] = toResult(req.Hostnames[i], g)
		}
		writeJSON(w, http.StatusOK, resp)
	}
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
		if !s.decode(w, r, &req) {
			return
		}
		hostname = req.Hostname
	}
	if hostname == "" {
		s.writeError(w, http.StatusBadRequest, "invalid_request",
			`"hostname" is required`)
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
func (s *server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
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

// metricsJSON is the JSON /metrics document.
type metricsJSON struct {
	Server    totalsJSON           `json:"server"`
	LatencyUS json.RawMessage      `json:"latency_us"`
	Index     geoloc.Stats         `json:"index"`
	Reload    geoloc.ReloadStats   `json:"reload"`
	Routes    map[string]routeJSON `json:"routes"`
}

type totalsJSON struct {
	Requests    int64 `json:"requests"`
	BadRequests int64 `json:"bad_requests"`
	Hostnames   int64 `json:"hostnames"`
}

// routeJSON is one route's row: requests, handler time, and responses
// per status class.
type routeJSON struct {
	Requests int64            `json:"requests"`
	TotalUS  int64            `json:"total_us"`
	Status   map[string]int64 `json:"status"`
}

// handleMetrics emits one JSON document rendered from the same counters
// as /metrics/prom: request totals, the /v1/geolocate latency
// histogram, the index's lookup counters, the reload lifecycle, and
// the routes that have served requests.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	routes := make(map[string]routeJSON, len(s.routes))
	for _, rt := range s.routes {
		n := rt.requests.Load()
		if n == 0 {
			continue
		}
		row := routeJSON{Requests: n, TotalUS: rt.ns.Load() / 1e3, Status: map[string]int64{}}
		for c := range rt.status {
			if n := rt.status[c].Load(); n > 0 {
				row.Status[statusClasses[c]] = n
			}
		}
		routes[rt.pattern] = row
	}
	writeJSON(w, http.StatusOK, metricsJSON{
		Server:    totalsJSON{s.requests.Load(), s.badRequests.Load(), s.hostnames.Load()},
		LatencyUS: json.RawMessage(s.latencyJSON()),
		Index:     s.plane.Live.Stats(),
		Reload:    s.plane.Live.ReloadStats(),
		Routes:    routes,
	})
}

// latencyJSON renders the latency histogram with buckets in numeric
// order, assembled by hand from the canonical bucket list because
// encoding/json sorts map keys lexically, which would put "inf" first
// and "le_10ms" before "le_1ms".
func (s *server) latencyJSON() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, bucket := range latencyBuckets {
		fmt.Fprintf(&b, "%q: %d, ", bucket.name, s.latency[i].Load())
	}
	fmt.Fprintf(&b, "%q: %d}", bucketInf, s.latency[len(latencyBuckets)].Load())
	return b.String()
}

// latencyBuckets are the upper bounds of the /v1/geolocate latency
// histogram, in ascending order; requests above the last bound land in
// bucketInf. Names carry units so the rendered order reads naturally.
var latencyBuckets = [...]struct {
	name string
	le   time.Duration
}{
	{"le_100us", 100 * time.Microsecond},
	{"le_1ms", time.Millisecond},
	{"le_10ms", 10 * time.Millisecond},
	{"le_100ms", 100 * time.Millisecond},
}

const bucketInf = "inf"

func (s *server) observeLatency(start time.Time) {
	d := time.Since(start)
	s.latSumUS.Add(int64(d / time.Microsecond))
	band := len(latencyBuckets)
	for i, b := range latencyBuckets {
		if d <= b.le {
			band = i
			break
		}
	}
	s.latency[band].Add(1)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	//lint:ignore droppederr the status line is already on the wire; an Encode failure means the client hung up
	enc.Encode(v)
}
