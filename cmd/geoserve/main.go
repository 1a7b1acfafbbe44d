// Command geoserve serves learned naming conventions over HTTP — the
// production shape of the paper's published-conventions workflow, where
// operators apply regexes at measurement scale rather than one hostname
// per process. Conventions come from any Source — a compiled-index
// snapshot (-snapshot, the fast path), a published conventions file
// (-nc), or a corpus to learn from (-corpus) — and are compiled once
// into an immutable geoloc.Index (regexes precompiled, learned geohints
// pre-resolved, results LRU-cached) served behind an atomic pointer.
//
// Usage:
//
//	geoserve -snapshot index.snap [-addr :8099]
//	geoserve -nc conventions.txt
//	geoserve -corpus data/aug2020 [-workers n] [-no-learn]
//
// Endpoints:
//
//	POST /v1/geolocate      {"hostname": "..."} or {"hostnames": [...]}
//	GET  /v1/explain        ?hostname=... — full decision trace for one
//	POST /v1/explain        hostname: suffix dispatch, each regex tried,
//	                        overlay-vs-dictionary resolution, and the
//	                        convention's PPV evidence; ?format=text renders
//	                        the hoiho -explain report
//	POST /v1/admin/reload   rebuild from the boot source, validate, swap
//	GET  /healthz           liveness, index size, serving generation
//	GET  /metrics/prom      Prometheus text exposition: requests, latency
//	                        histogram, index lookup counters (which carry
//	                        across reloads), reload lifecycle, per-route
//	                        counters with status classes, Go runtime
//	                        gauges read at scrape time
//	GET  /metrics           the index lookup counters alone, as
//	                        {"index":{...}}; perfbench's traced run
//	                        reads its cache counters here
//	GET  /debug/pprof/      net/http/pprof profiling (heap, profile, trace, ...)
//
// Reloads are zero-downtime: SIGHUP or POST /v1/admin/reload re-resolves
// the boot source off the request path, builds the replacement index
// with the checks the boot index passed, and swaps an atomic pointer
// (geoloc.Live.Reload); in-flight requests finish on the old index,
// which then drains to the garbage collector. Error responses across
// /v1 share one JSON envelope: {"error":{"code":...,"message":...}};
// a POST body past what a full batch can need is refused with 413.
//
// With -qlog <path>, every handled request appends a sampled JSONL
// record (timestamp, request id, route, status, duration, serving
// generation) to a size-rotated access log; -qlog-sample keeps 1 in N.
// -version prints build info.
//
// /healthz, pprof, the index, reload, query-log and runtime families,
// the serve loop, the SIGHUP loop and the -qlog flags are
// internal/daemon's, shared with geodns. The process drains in-flight
// requests and exits cleanly on SIGINT or SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"hoiho/internal/buildinfo"
	"hoiho/internal/daemon"
	"hoiho/internal/geoloc"
)

func main() {
	addr := flag.String("addr", ":8099", "listen address")
	src := &geoloc.Source{}
	src.RegisterFlags(flag.CommandLine)
	cacheSize := flag.Int("cache", geoloc.DefaultCacheSize,
		"LRU result-cache entries (negative disables)")
	usableOnly := flag.Bool("usable-only", false, "serve only good/promising conventions")
	qlogFlags := daemon.RegisterQlogFlags(flag.CommandLine)
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "geoserve")
		return
	}
	if _, err := src.Kind(); err != nil {
		fmt.Fprintln(os.Stderr, "geoserve:", err)
		flag.Usage()
		os.Exit(2)
	}

	opts := geoloc.Options{UsableOnly: *usableOnly, CacheSize: *cacheSize}
	resolved, err := src.Resolve(opts)
	if err != nil {
		fatal(err)
	}
	log.Printf("geoserve: serving %d conventions from %s", resolved.Index.Len(), src.Describe())

	s := newServer(resolved.Index)
	s.enableReload(src, opts)
	ql, err := qlogFlags.Open("geoserve")
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := ql.Close(); err != nil {
			log.Printf("geoserve: query log: %v", err)
		}
	}()
	s.enableQlog(ql)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// SIGHUP triggers the same validated hot swap as /v1/admin/reload;
	// the handler is armed before the daemon reports it is listening.
	waitReloads := s.plane.ReloadOnHangup(ctx, src, opts)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("geoserve: listening on %s", ln.Addr())

	err = daemon.Serve(ctx, ln, s)
	stop() // release the hup loop even when serve failed on its own
	waitReloads()
	if err != nil {
		fatal(err)
	}
	log.Print("geoserve: shut down cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "geoserve:", err)
	os.Exit(1)
}
