// Command geodns serves learned naming conventions over DNS — the
// lookup-side counterpart to geoserve's HTTP API, for tooling that
// already speaks the resolver protocol (dig, monitoring probes, batch
// PTR pipelines). Conventions come from any Source — a compiled-index
// snapshot (-snapshot), a published conventions file (-nc), or a
// corpus to learn from (-corpus) — compiled once into an immutable
// geoloc.Index served behind an atomic pointer, exactly like geoserve.
//
// Usage:
//
//	geodns -snapshot index.snap [-addr 127.0.0.1:5353]
//	geodns -nc conventions.txt [-ttl 300] [-rate 100 -burst 200]
//
// The daemon answers queries whose QNAME is a router hostname:
//
//	TXT  key=value geolocation detail (city, region, country, lat,
//	     long, suffix, hint, type, learned) — the /v1 JSON fields
//	PTR  a synthetic <city>.<region>.<country>.geo.invalid. target
//	LOC  RFC 1876 coordinates, when the location resolves to a point
//	ANY  all of the above
//
// A hostname no convention locates is NXDOMAIN; a located hostname
// asked an unserved type is an empty authoritative NOERROR. Malformed
// frames get FORMERR, non-query opcodes and non-IN classes NOTIMP,
// EDNS versions above 0 BADVERS, and sources past the -rate budget a
// header-only REFUSED — the same taxonomy the HTTP front end spells
// as its /v1 error envelope. UDP and TCP are served on the same
// address; UDP responses honor the EDNS-negotiated payload size
// (never below 512 bytes), fit 512 bytes when the query carries no
// EDNS record (RFC 1035 §4.2.1), and drop tail records with TC set
// when the answer cannot fit, at which point resolvers retry over TCP.
// Pipelined TCP queries are answered in order, their replies written
// together rather than one syscall each. At most 256 TCP connections
// are served at once; one past that is closed unread and counted.
//
// SIGHUP triggers the same validated zero-downtime reload as
// geoserve: re-resolve the boot source, spot-check the replacement
// index, swap the pointer (geoloc.Live.Reload). SIGINT/SIGTERM close
// idle TCP connections at once, flush the replies in flight on busy
// ones, and exit cleanly, logging the lifetime query counters.
//
// With -admin-addr, a plain-HTTP sidecar listener serves the
// operational plane that does not belong on the DNS port:
//
//	GET /metrics/prom   Prometheus text exposition — per-outcome query
//	                    counters, TCP connections refused at the cap,
//	                    limiter refusals and evictions, the
//	                    negotiated EDNS response-size histogram, index
//	                    lookup counters (which carry across reloads),
//	                    reload build/swap timings, query-log counters,
//	                    and Go runtime gauges read at scrape time
//	GET /healthz        liveness, suffix count, serving generation,
//	                    build commit and go version
//	GET /debug/pprof/   net/http/pprof profiling
//
// /healthz, pprof, the index, reload, query-log and runtime families,
// the admin serve loop, the SIGHUP loop and the -qlog flags are
// internal/daemon's, shared with geoserve.
//
// With -qlog <path>, every handled query appends a sampled JSONL
// record (timestamp, request id, qtype, hostname, source, rcode,
// outcome, duration, serving generation) to a size-rotated access
// log; -qlog-sample keeps 1 in N. -version prints build info.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"hoiho/internal/buildinfo"
	"hoiho/internal/daemon"
	"hoiho/internal/dnsserve"
	"hoiho/internal/geoloc"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5353", "listen address (UDP and TCP)")
	src := &geoloc.Source{}
	src.RegisterFlags(flag.CommandLine)
	ttl := flag.Uint("ttl", 300, "TTL stamped on answer records (seconds)")
	udpSize := flag.Uint("udp-size", 1232, "largest UDP payload to send (EDNS)")
	rate := flag.Float64("rate", 0, "per-source queries per second (0 disables rate limiting)")
	burst := flag.Float64("burst", 0, "per-source burst headroom (defaults to 2x rate)")
	cacheSize := flag.Int("cache", geoloc.DefaultCacheSize,
		"LRU result-cache entries (negative disables)")
	usableOnly := flag.Bool("usable-only", false, "serve only good/promising conventions")
	adminAddr := flag.String("admin-addr", "",
		"HTTP admin listener for /metrics/prom, /healthz, /debug/pprof/ (empty disables)")
	qlogFlags := daemon.RegisterQlogFlags(flag.CommandLine)
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "geodns")
		return
	}
	if _, err := src.Kind(); err != nil {
		fmt.Fprintln(os.Stderr, "geodns:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *burst == 0 {
		*burst = 2 * *rate
	}

	opts := geoloc.Options{UsableOnly: *usableOnly, CacheSize: *cacheSize}
	resolved, err := src.Resolve(opts)
	if err != nil {
		fatal(err)
	}
	log.Printf("geodns: serving %d conventions from %s", resolved.Index.Len(), src.Describe())

	ql, err := qlogFlags.Open("geodns")
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := ql.Close(); err != nil {
			log.Printf("geodns: query log: %v", err)
		}
	}()

	s := dnsserve.New(resolved.Index, dnsserve.Config{
		TTL:      uint32(*ttl),
		UDPSize:  uint16(*udpSize),
		Rate:     *rate,
		Burst:    *burst,
		QueryLog: ql,
	})
	plane := &daemon.Plane{Name: "geodns", Live: s.Live(), Qlog: ql, Start: time.Now()}

	// TCP binds first so a ":0" request resolves to one concrete port
	// shared by both transports — the single address the log line
	// advertises must answer either way.
	ln, err := net.ListenTCP("tcp", mustTCPAddr(*addr))
	if err != nil {
		fatal(err)
	}
	tcpAddr, ok := ln.Addr().(*net.TCPAddr)
	if !ok {
		fatal(fmt.Errorf("unexpected listener address %T", ln.Addr()))
	}
	uconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: tcpAddr.IP, Port: tcpAddr.Port, Zone: tcpAddr.Zone})
	if err != nil {
		fatal(err)
	}
	// The admin plane binds before the listening line is logged: a bad
	// -admin-addr fails fast, and anything scraping startup logs sees
	// the admin address before the serving address declares readiness.
	var adminLn net.Listener
	if *adminAddr != "" {
		adminLn, err = net.Listen("tcp", *adminAddr)
		if err != nil {
			fatal(err)
		}
		log.Printf("geodns: admin plane on http://%s (metrics, healthz, pprof)", adminLn.Addr())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// SIGHUP reloads the boot source; the handler is armed before the
	// daemon reports it is listening.
	waitReloads := plane.ReloadOnHangup(ctx, src, opts)
	log.Printf("geodns: listening on %s (udp+tcp)", ln.Addr())

	// All serve loops return once ctx is canceled (ServeTCP drains open
	// connections, the admin server shuts down gracefully). Any loop
	// failing on its own cancels the others.
	errc := make(chan error, 3)
	loops := 2
	go func() { errc <- s.ServeUDP(ctx, uconn) }()
	go func() { errc <- s.ServeTCP(ctx, ln) }()
	if adminLn != nil {
		loops++
		go func() { errc <- daemon.Serve(ctx, adminLn, newAdmin(s, plane)) }()
	}
	err = <-errc
	stop()
	for i := 1; i < loops; i++ {
		if err2 := <-errc; err == nil {
			err = err2
		}
	}
	waitReloads()
	if cerr := uconn.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if cerr := ln.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	log.Printf("geodns: shut down cleanly (%s)", statsLine(s.Stats()))
}

// statsLine renders the lifetime counters sorted by key, so shutdown
// logs are diffable across runs.
func statsLine(stats map[string]int64) string {
	if len(stats) == 0 {
		return "no queries"
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, stats[k]))
	}
	return strings.Join(parts, " ")
}

func mustTCPAddr(addr string) *net.TCPAddr {
	a, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		fatal(err)
	}
	return a
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "geodns:", err)
	os.Exit(1)
}
