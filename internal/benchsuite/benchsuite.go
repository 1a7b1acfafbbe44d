// Package benchsuite is the repo's one table of in-process benchmarks:
// pipeline runs, stage-2 tagging, serving-index batch lookups, snapshot
// load, reload swap, the DNS handler and transport, and the lint engine.
// cmd/geobench records every entry into BENCH_NNNN.json, and the root
// package's `go test -bench Suite` runs the same entries over the same
// corpus, so the two views time the same code.
package benchsuite

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/dnsserve"
	"hoiho/internal/dnswire"
	"hoiho/internal/geoloc"
	"hoiho/internal/lint"
	"hoiho/internal/obs"
	"hoiho/internal/rex"
)

// DefaultCorpus is the corpus the committed trajectory is recorded on,
// relative to the repo root.
const DefaultCorpus = "testdata/golden"

// Entry is one benchmark of the table.
type Entry struct {
	Name string // the name BENCH_NNNN.json records
	Doc  string // one line for geobench -list
	Run  func(s *Suite, b *testing.B)
}

// Suite is one loaded corpus that the table's entries run over.
type Suite struct {
	corpus string
	in     core.Inputs
	res    *core.Result
	hosts  []string
	snap   []byte // one serialized snapshot of res
	suffix string // the largest suffix group

	// Lazily built, shared by the GeoDNS benchmarks: the handler is
	// stateless (no limiter), so repeats reuse it.
	dnsOnce sync.Once
	dnsSrv  *dnsserve.Server
	dnsPkt  []byte
	dnsErr  error
}

// New loads corpus and learns its conventions with the default
// configuration.
func New(corpus string) (*Suite, error) {
	resolved, err := (&geoloc.Source{Corpus: corpus}).Resolve(geoloc.Options{})
	if err != nil {
		return nil, fmt.Errorf("loading corpus (run from the repo root, or pass -corpus): %w", err)
	}
	s := &Suite{corpus: corpus, in: *resolved.Inputs, res: resolved.Result, hosts: corpusHosts(*resolved.Inputs)}
	if len(s.hosts) == 0 {
		return nil, fmt.Errorf("corpus %s has no hostnames to benchmark", corpus)
	}
	// The snapshot benchmarks measure the serving cold path: one
	// serialized image in memory, decoded + compiled per iteration.
	var snap bytes.Buffer
	if err := geoloc.Save(&snap, s.res, nil); err != nil {
		return nil, err
	}
	s.snap = snap.Bytes()
	s.suffix = largestSuffix(s.in)
	return s, nil
}

// Inputs returns the loaded corpus.
func (s *Suite) Inputs() core.Inputs { return s.in }

// sequentialConfig is the pipeline configuration of CoreRunSequential
// and Stage2TagSuffix.
func sequentialConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	return cfg
}

// ParallelConfig is the pipeline configuration of CoreRunParallel.
// BENCH_0005 recorded workers:1 (GOMAXPROCS on a single-CPU bench
// host), which made CoreRunParallel a duplicate of CoreRunSequential.
// The pool is pinned to min(4, GOMAXPROCS) so big hosts do not skew
// the trajectory, floored at 2 so the pool path (goroutine fan-out,
// ordered merge) is exercised everywhere.
func ParallelConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = max(2, min(4, runtime.GOMAXPROCS(0)))
	return cfg
}

// Table is the benchmark suite, in recording order.
var Table = []Entry{
	{"CoreRunSequential", "core.Run, Workers=1", func(s *Suite, b *testing.B) {
		cfg := sequentialConfig()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(s.in, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"CoreRunParallel", "core.Run, Workers=min(4, GOMAXPROCS), at least 2", func(s *Suite, b *testing.B) {
		cfg := ParallelConfig()
		b.ReportMetric(float64(cfg.Workers), "workers")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(s.in, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"Stage2TagSuffix", "stage-2 tagging of the largest suffix group", func(s *Suite, b *testing.B) {
		cfg := sequentialConfig()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.TagSuffix(s.in, cfg, s.suffix); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"GeolocBatchColdCompile", "geoloc.New + LookupBatch on cloned (uncompiled) conventions", func(s *Suite, b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cold, err := geoloc.New(cloneResult(s.res), s.uncached())
			if err != nil {
				b.Fatal(err)
			}
			cold.LookupBatch(s.hosts)
		}
	}},
	{"GeolocBatchWarm", "compiled index, result cache disabled", func(s *Suite, b *testing.B) {
		ix, err := geoloc.New(s.res, s.uncached())
		if err != nil {
			b.Fatal(err)
		}
		// ResetTimer also clears reported metrics, so it comes first.
		b.ResetTimer()
		b.ReportMetric(float64(len(s.hosts)), "hostnames")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.LookupBatch(s.hosts)
		}
	}},
	{"GeolocBatchCached", "compiled index, warmed LRU", func(s *Suite, b *testing.B) {
		ix, err := geoloc.New(s.res, geoloc.Options{Dict: s.in.Dict, PSL: s.in.PSL})
		if err != nil {
			b.Fatal(err)
		}
		ix.LookupBatch(s.hosts) // warm the LRU
		b.ResetTimer()
		b.ReportMetric(float64(len(s.hosts)), "hostnames")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.LookupBatch(s.hosts)
		}
	}},
	{"GoldenEndToEnd", "LoadInputs + core.Run + WriteConventions", func(s *Suite, b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in, err := geoloc.LoadInputs(s.corpus)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Run(in, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := core.WriteConventions(io.Discard, res); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"SnapshotLoad", "geoloc.Load of an in-memory snapshot (decode + compile)", func(s *Suite, b *testing.B) {
		b.ReportMetric(float64(len(s.snap)), "snapshot-bytes")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := geoloc.Load(bytes.NewReader(s.snap), s.uncached()); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"ReloadSwap", "atomic Live swap between two prebuilt indexes", func(s *Suite, b *testing.B) {
		// Two prebuilt indexes alternate through a Live handle: the
		// benchmark times only the swap geoserve performs on SIGHUP,
		// not the replacement build and its checks in geoloc.New,
		// which happen off the request path.
		ixA, err := geoloc.New(s.res, s.uncached())
		if err != nil {
			b.Fatal(err)
		}
		ixB, err := geoloc.New(s.res, s.uncached())
		if err != nil {
			b.Fatal(err)
		}
		live := geoloc.NewLive(ixA)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next := ixB
			if i%2 == 1 {
				next = ixA
			}
			live.Swap(next)
		}
	}},
	{"GeoDNSQuery", "one TXT query through the dnsserve handler, no socket", func(s *Suite, b *testing.B) {
		// The socketless DNS serving path: decode, rate-limit check,
		// index lookup, answer build, encode — geodns's per-packet
		// work with the kernel taken out of the measurement.
		srv, pkt, err := s.dnsSetup()
		if err != nil {
			b.Fatal(err)
		}
		src := netip.MustParseAddr("127.0.0.1")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := srv.HandlePacket(pkt, src, false); resp == nil {
				b.Fatal("no response")
			}
		}
	}},
	{"GeoDNSServeUDP", "sustained loopback UDP query/response round trips (p99_us)", func(s *Suite, b *testing.B) {
		// The full transport: a loopback UDP client driving the real
		// serve loop, one query in flight at a time. p99_us reports
		// the tail of the per-round-trip latencies.
		srv, pkt, err := s.dnsSetup()
		if err != nil {
			b.Fatal(err)
		}
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- srv.ServeUDP(ctx, conn) }()
		client, err := net.Dial("udp", conn.LocalAddr().String())
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 65536)
		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if err := client.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
				b.Fatal(err)
			}
			if _, err := client.Write(pkt); err != nil {
				b.Fatal(err)
			}
			if _, err := client.Read(buf); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
		}
		b.StopTimer()
		cancel()
		<-done
		if err := client.Close(); err != nil {
			b.Fatal(err)
		}
		if err := conn.Close(); err != nil {
			b.Fatal(err)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		if len(lat) > 0 {
			p99 := lat[len(lat)*99/100]
			b.ReportMetric(float64(p99)/1e3, "p99_us")
		}
	}},
	{"LintModule", "lint.LoadModule + all analyzers self-hosted over this repo", func(s *Suite, b *testing.B) {
		// Tracks the analysis engine itself: a full type-checked module
		// load plus every registered analyzer (CFG + dataflow included),
		// the same work the CI lint gate does on each push.
		root, err := lint.FindModuleRoot(".")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pkgs, err := lint.LoadModule(root)
			if err != nil {
				b.Fatal(err)
			}
			diags := lint.Run(pkgs, lint.All())
			if i == 0 {
				b.ReportMetric(float64(len(pkgs)), "packages")
				b.ReportMetric(float64(len(diags)), "findings")
			}
		}
	}},
}

// uncached is the index configuration with the result cache disabled.
func (s *Suite) uncached() geoloc.Options {
	return geoloc.Options{Dict: s.in.Dict, PSL: s.in.PSL, CacheSize: -1}
}

// dnsSetup builds (once) a dnsserve handler over the suite's learned
// conventions plus a packed TXT query for a hostname the index
// locates, preferring a located name so the benchmark measures the
// answer path, not NXDOMAIN.
func (s *Suite) dnsSetup() (*dnsserve.Server, []byte, error) {
	s.dnsOnce.Do(func() {
		ix, err := geoloc.New(s.res, s.uncached())
		if err != nil {
			s.dnsErr = err
			return
		}
		host := s.hosts[0]
		for _, h := range s.hosts {
			if _, ok := ix.Lookup(h); ok {
				host = h
				break
			}
		}
		m := &dnswire.Message{
			ID:               1,
			RecursionDesired: true,
			Questions: []dnswire.Question{{
				Name: host + ".", Type: dnswire.TypeTXT, Class: dnswire.ClassINET,
			}},
			EDNS: &dnswire.EDNS{UDPSize: 1232},
		}
		pkt, err := m.Pack()
		if err != nil {
			s.dnsErr = err
			return
		}
		s.dnsSrv = dnsserve.New(ix, dnsserve.Config{})
		s.dnsPkt = pkt
	})
	return s.dnsSrv, s.dnsPkt, s.dnsErr
}

// TracedCounters runs one traced pipeline and index build and flattens
// the span aggregates into record counters: span_<stage>_count,
// span_<stage>_us, and span_<stage>_<counter> rows. It runs no lookups:
// the index opens no span for them, so they would add no counter.
func (s *Suite) TracedCounters() map[string]int64 {
	counters := make(map[string]int64)
	tr := obs.New(obs.Options{})
	cfg := core.DefaultConfig()
	cfg.Tracer = tr
	res, err := core.Run(s.in, cfg)
	if err != nil {
		return counters
	}
	if _, err := geoloc.New(res, geoloc.Options{Dict: s.in.Dict, PSL: s.in.PSL, Tracer: tr}); err != nil {
		return counters
	}
	for _, row := range tr.Summary().Stages {
		counters["span_"+row.Name+"_count"] = row.Count
		counters["span_"+row.Name+"_us"] = row.TotalUS
		names := make([]string, 0, len(row.Counters))
		for name := range row.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			counters["span_"+row.Name+"_"+name] = row.Counters[name]
		}
	}
	return counters
}

// cloneResult deep-copies the conventions' regexes so every compile
// cache is cold — the honest cost of standing up an index from a
// freshly parsed conventions file.
func cloneResult(res *core.Result) *core.Result {
	out := *res
	out.NCs = make(map[string]*core.NamingConvention, len(res.NCs))
	for suffix, nc := range res.NCs {
		c := *nc
		c.Regexes = make([]*rex.Regex, len(nc.Regexes))
		for i, r := range nc.Regexes {
			c.Regexes[i] = r.Clone()
		}
		out.NCs[suffix] = &c
	}
	return &out
}

// corpusHosts collects the corpus's hostnames, sorted and capped at the
// index's default cache size so the cached benchmark measures hits.
func corpusHosts(in core.Inputs) []string {
	var hosts []string
	for _, r := range in.Corpus.Routers {
		hosts = append(hosts, r.Hostnames()...)
	}
	sort.Strings(hosts)
	if len(hosts) > geoloc.DefaultCacheSize {
		hosts = hosts[:geoloc.DefaultCacheSize]
	}
	return hosts
}

// largestSuffix picks the suffix group with the most hostnames, ties
// broken by name — the same group every run.
func largestSuffix(in core.Inputs) string {
	var best string
	bestN := -1
	for _, g := range in.Corpus.GroupBySuffix(in.PSL) {
		n := len(g.Hosts)
		if n > bestN || (n == bestN && g.Suffix < best) {
			best, bestN = g.Suffix, n
		}
	}
	return best
}
