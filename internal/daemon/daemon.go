// Package daemon is the serving core geoserve and geodns share: the
// operational surface around a geoloc.Live that does not depend on the
// wire protocol. It holds one copy each of /healthz, the pprof routes,
// the index, reload, query-log and Go runtime Prometheus collectors
// (named under the daemon's prefix), the graceful HTTP serve loop, the
// SIGHUP reload loop and the query-log flags.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hoiho/internal/buildinfo"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
	"hoiho/internal/promexp"
	"hoiho/internal/qlog"
)

// Plane is one daemon's operational view of its serving index. Name
// prefixes its metric families and log lines ("geoserve", "geodns").
// Qlog may be nil (query log off).
type Plane struct {
	Name  string
	Live  *geoloc.Live
	Qlog  *qlog.Logger
	Start time.Time
}

// Healthz serves the liveness document: status, suffix count, serving
// generation, uptime and build identity.
func (p *Plane) Healthz(w http.ResponseWriter, _ *http.Request) {
	info := buildinfo.Read()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	//lint:ignore droppederr a 200 header is already on the wire; an Encode failure means the client hung up
	enc.Encode(map[string]any{
		"status":     "ok",
		"suffixes":   p.Live.Index().Len(),
		"generation": p.Live.Generation(),
		"uptime_s":   int64(time.Since(p.Start).Seconds()),
		"commit":     info.Commit,
		"go_version": info.GoVersion,
	})
}

// RegisterPprof adds the net/http/pprof routes to mux (the pprof
// package's side-effect registration only covers http.DefaultServeMux).
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// IndexMetrics renders the lookup counters of every index the daemon
// has served, including the per-suffix and per-class match
// attributions as labeled series. They carry across reloads, so no
// sample ever goes down.
func (p *Plane) IndexMetrics(pw *promexp.Writer) {
	st := p.Live.Stats()
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"index_lookups_total", "Hostname lookups against the index.", st.Lookups},
		{"index_cache_hits_total", "Lookups answered from the LRU cache.", st.CacheHits},
		{"index_cache_misses_total", "Lookups that missed the LRU cache.", st.CacheMisses},
		{"index_matched_total", "Lookups that matched a convention.", st.Matched},
		{"index_unmatched_total", "Lookups no convention matched.", st.Unmatched},
	} {
		pw.Counter(p.Name+"_"+c.name, c.help, float64(c.v))
	}
	suffixes := p.Name + "_index_suffix_matches_total"
	pw.Family(suffixes, "Matches per convention suffix.", "counter")
	for _, k := range promexp.SortedKeys(st.BySuffix) {
		pw.Sample(suffixes, promexp.Labels("suffix", k), float64(st.BySuffix[k]))
	}
	classes := p.Name + "_index_class_matches_total"
	pw.Family(classes, "Matches per convention classification.", "counter")
	for _, k := range promexp.SortedKeys(st.ByClass) {
		pw.Sample(classes, promexp.Labels("class", k), float64(st.ByClass[k]))
	}
}

// ReloadMetrics renders the hot-reload lifecycle: the serving
// generation, reload outcome counters, and the latest build/swap
// latencies.
func (p *Plane) ReloadMetrics(pw *promexp.Writer) {
	rs := p.Live.ReloadStats()
	pw.Gauge(p.Name+"_index_generation", "Serving index generation (1 = boot index, +1 per swap).",
		float64(rs.Generation))
	pw.Counter(p.Name+"_reloads_total", "Successful index reloads.",
		float64(rs.Reloads))
	pw.Counter(p.Name+"_reload_failures_total", "Reload attempts rejected before the swap.",
		float64(rs.Failures))
	pw.Gauge(p.Name+"_reload_build_seconds", "Replacement-index build time of the last successful reload.",
		float64(rs.LastBuildUS)/1e6)
	pw.Gauge(p.Name+"_reload_swap_seconds", "Validate+swap time of the last successful reload.",
		float64(rs.LastSwapUS)/1e6)
}

// QlogMetrics renders the query-log counters. Nothing is emitted when
// the log is off: absent families read unambiguously as "off".
func (p *Plane) QlogMetrics(pw *promexp.Writer) {
	if !p.Qlog.Enabled() {
		return
	}
	st := p.Qlog.Stats()
	pw.Counter(p.Name+"_qlog_records_total", "Query-log records written.", float64(st.Logged))
	pw.Counter(p.Name+"_qlog_sampled_out_total", "Queries skipped by the sampling rate.", float64(st.Skipped))
	pw.Counter(p.Name+"_qlog_rotations_total", "Query-log file rotations.", float64(st.Rotations))
}

// RuntimeMetrics renders the Go runtime's health, read at scrape time:
// heap bytes in use, goroutines, and the p50 and p99 of GC pauses and
// scheduler latency over the life of the process.
func (p *Plane) RuntimeMetrics(pw *promexp.Writer) {
	rt := obs.ReadRuntime()
	pw.Gauge(p.Name+"_runtime_heap_bytes", "Heap bytes in use.", float64(rt.HeapBytes))
	pw.Gauge(p.Name+"_runtime_goroutines", "Live goroutines.", float64(rt.Goroutines))
	for _, q := range []struct {
		name, help string
		p50, p99   float64
	}{
		{"gc_pause_seconds", "GC pause quantiles since the process started.", rt.GCPauseP50US, rt.GCPauseP99US},
		{"sched_latency_seconds", "Scheduler latency quantiles since the process started.", rt.SchedLatP50US, rt.SchedLatP99US},
	} {
		name := p.Name + "_runtime_" + q.name
		pw.Family(name, q.help, "gauge")
		pw.Sample(name, promexp.Labels("quantile", "0.5"), q.p50/1e6)
		pw.Sample(name, promexp.Labels("quantile", "0.99"), q.p99/1e6)
	}
}

// ReloadOnHangup reloads p.Live from src with opts on every SIGHUP and
// logs the outcome, until ctx ends. The returned function waits for the
// loop to exit, so a reload in flight at shutdown finishes logging.
func (p *Plane) ReloadOnHangup(ctx context.Context, src *geoloc.Source, opts geoloc.Options) (wait func()) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer signal.Stop(hup)
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				st, err := p.Live.Reload(src, opts)
				if err != nil {
					log.Printf("%s: SIGHUP reload failed, still serving generation %d: %v",
						p.Name, p.Live.Generation(), err)
					continue
				}
				log.Printf("%s: SIGHUP reload: generation %d, %d suffixes, build %dµs, swap %dµs",
					p.Name, st.Generation, st.Suffixes, st.BuildUS, st.SwapUS)
			}
		}
	}()
	return func() { <-done }
}

// drainTimeout bounds how long Serve waits for in-flight requests.
const drainTimeout = 10 * time.Second

// Serve runs an HTTP server for h on ln until ctx is cancelled, then
// shuts down gracefully: the listener closes, in-flight requests get up
// to drainTimeout to complete, and nil is returned on a clean drain.
func Serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// QlogFlags is the query-log flag cluster: -qlog, -qlog-sample and
// -qlog-max-bytes.
type QlogFlags struct {
	path     string
	sample   int
	maxBytes int64
}

// RegisterQlogFlags registers the query-log flags on fs.
func RegisterQlogFlags(fs *flag.FlagSet) *QlogFlags {
	f := &QlogFlags{}
	fs.StringVar(&f.path, "qlog", "", "write a sampled JSONL query log to this file (empty disables)")
	fs.IntVar(&f.sample, "qlog-sample", 1, "keep 1 in N query-log records")
	fs.Int64Var(&f.maxBytes, "qlog-max-bytes", 64<<20,
		"rotate the query log to <path>.1 before exceeding this size (0 disables rotation)")
	return f
}

// Open opens the configured query log and logs where it writes under
// name. Without -qlog it returns nil, the disabled logger.
func (f *QlogFlags) Open(name string) (*qlog.Logger, error) {
	if f.path == "" {
		return nil, nil
	}
	l, err := qlog.New(qlog.Options{Path: f.path, Sample: f.sample, MaxBytes: f.maxBytes})
	if err != nil {
		return nil, err
	}
	log.Printf("%s: query log at %s (1 in %d)", name, f.path, max(1, f.sample))
	return l, nil
}
