// Command geobench records the repo's performance trajectory: it runs
// the registered benchmark suite (pipeline runs, stage-2 tagging,
// serving-index batch lookups, golden-corpus end-to-end) against the
// committed golden corpus, merges the testing.Benchmark timings with
// the aggregate counters of one traced pass, and writes a
// schema-versioned, env/commit/date-stamped BENCH_NNNN.json — the files
// committed at the repo root from PR 5 on.
//
// Usage:
//
//	geobench [-quick] [-o BENCH_0006.json]            record a run
//	geobench -quick -against BENCH_0005.json          run + regression gate
//	geobench -against a.json -candidate b.json        pure compare, no run
//	geobench -list                                    print the suite
//
// Compare mode computes per-benchmark deltas of the repeat-run medians
// and flags a regression only when a candidate is past -threshold AND
// outside the records' combined median-absolute-deviation noise bound,
// so scheduler jitter cannot fail the gate. Exit status: 0 clean, 1
// regression detected, 2 usage or I/O error.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"

	"hoiho/internal/buildinfo"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hoiho/internal/benchrec"
	"hoiho/internal/core"
	"hoiho/internal/dnsserve"
	"hoiho/internal/dnswire"
	"hoiho/internal/geoloc"
	"hoiho/internal/lint"
	"hoiho/internal/obs"
	"hoiho/internal/rex"
)

func main() {
	testing.Init() // registers -test.* flags so testing.Benchmark works outside `go test`
	// The suite learns from a corpus (default: the committed golden one).
	// The shared Source flags keep geobench's cluster identical to the
	// other commands'; passing -snapshot/-nc instead of -corpus is
	// rejected in newSuite with an explanation.
	src := &geoloc.Source{Corpus: "testdata/golden"}
	src.RegisterFlags(flag.CommandLine)
	out := flag.String("o", "", "write the candidate record to this file")
	against := flag.String("against", "", "baseline BENCH_*.json to compare the candidate against")
	candPath := flag.String("candidate", "", "load the candidate from this file instead of running the suite")
	quick := flag.Bool("quick", false, "reduced benchtime and repeats (the CI bench-record configuration)")
	repeats := flag.Int("repeats", 0, "repeat runs per benchmark (0 = 5, or 3 with -quick)")
	threshold := flag.Float64("threshold", benchrec.DefaultThreshold,
		"relative slowdown that counts as a regression (with the noise bound)")
	runPat := flag.String("run", "", "run only benchmarks matching this regexp")
	list := flag.Bool("list", false, "list the registered suite and exit")
	commitFlag := flag.String("commit", "", "commit id to stamp (default: git rev-parse --short HEAD, with -dirty when tracked files differ; best effort)")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "geobench")
		return
	}
	// -corpus has a default; drop it when the user named another input
	// explicitly so Source's exactly-one contract sees their choice.
	if src.Snapshot != "" || src.NC != "" {
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "corpus" })
		if !explicit {
			src.Corpus = ""
		}
	}

	if *list {
		for _, d := range suiteNames() {
			fmt.Println(d)
		}
		return
	}

	cand, err := candidate(src, *candPath, *out, *quick, *repeats, *runPat, *commitFlag)
	if err != nil {
		fatal(err)
	}
	if *against == "" {
		return
	}
	base, err := benchrec.ReadFile(*against)
	if err != nil {
		fatal(err)
	}
	deltas, regressed := benchrec.Compare(base, cand, *threshold)
	if err := benchrec.FormatDeltas(os.Stdout, deltas); err != nil {
		fatal(err)
	}
	if regressed {
		fmt.Fprintf(os.Stderr, "geobench: regression against %s (threshold %.0f%% + noise bound)\n",
			*against, 100**threshold)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "geobench: no regression against %s\n", *against)
}

// candidate produces the record under comparison: loaded from a file in
// pure-compare mode, freshly measured otherwise.
func candidate(src *geoloc.Source, candPath, out string, quick bool, repeats int, runPat, commitFlag string) (*benchrec.File, error) {
	if candPath != "" {
		return benchrec.ReadFile(candPath)
	}
	rec, err := runSuite(src, quick, repeats, runPat, commitFlag)
	if err != nil {
		return nil, err
	}
	if out != "" {
		if err := rec.WriteFile(out); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "geobench: wrote %d benchmarks to %s\n", len(rec.Benchmarks), out)
	}
	return rec, nil
}

// runSuite measures every selected benchmark `repeats` times and stamps
// the record.
func runSuite(src *geoloc.Source, quick bool, repeats int, runPat, commitFlag string) (*benchrec.File, error) {
	benchtime := "1s"
	if repeats == 0 {
		repeats = 5
	}
	if quick {
		benchtime = "100ms"
		if repeats > 3 {
			repeats = 3
		}
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	var filter *regexp.Regexp
	if runPat != "" {
		var err error
		if filter, err = regexp.Compile(runPat); err != nil {
			return nil, fmt.Errorf("bad -run pattern: %w", err)
		}
	}

	s, err := newSuite(src)
	if err != nil {
		return nil, err
	}
	rec := benchrec.NewFile(time.Now().UTC().Format(time.RFC3339), commitID(commitFlag), quick)
	for _, def := range s.defs {
		if filter != nil && !filter.MatchString(def.name) {
			continue
		}
		fmt.Fprintf(os.Stderr, "geobench: %s (%d x %s)\n", def.name, repeats, benchtime)
		results := make([]testing.BenchmarkResult, repeats)
		for i := range results {
			results[i] = testing.Benchmark(def.bench)
		}
		rec.Record(def.name, results)
	}
	if len(rec.Benchmarks) == 0 {
		return nil, fmt.Errorf("-run %q selects no benchmarks", runPat)
	}
	rec.Counters = s.tracedCounters()
	return rec, nil
}

// suite binds the benchmark definitions to one loaded corpus.
type suite struct {
	in    core.Inputs
	res   *core.Result
	hosts []string
	defs  []benchDef

	// Lazily built, shared by the GeoDNS benchmarks: the handler is
	// stateless (no limiter, no tracer), so repeats reuse it.
	dnsOnce sync.Once
	dnsSrv  *dnsserve.Server
	dnsPkt  []byte
	dnsErr  error
}

// dnsSetup builds (once) a dnsserve handler over the suite's learned
// conventions plus a packed TXT query for a hostname the index
// locates, preferring a located name so the benchmark measures the
// answer path, not NXDOMAIN.
func dnsSetup(s *suite) (*dnsserve.Server, []byte, error) {
	s.dnsOnce.Do(func() {
		ix, err := geoloc.New(s.res, geoloc.Options{Dict: s.in.Dict, PSL: s.in.PSL, CacheSize: -1})
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

type benchDef struct {
	name  string
	bench func(b *testing.B)
}

func suiteNames() []string {
	return []string{
		"CoreRunSequential    core.Run, Workers=1",
		"CoreRunParallel      core.Run, Workers=GOMAXPROCS",
		"Stage2TagSuffix      stage-2 tagging of the largest suffix group",
		"GeolocBatchColdCompile  geoloc.New + LookupBatch on cloned (uncompiled) conventions",
		"GeolocBatchWarm      compiled index, result cache disabled",
		"GeolocBatchCached    compiled index, warmed LRU",
		"GoldenEndToEnd       LoadInputs + core.Run + WriteConventions",
		"SnapshotLoad         geoloc.Load of an in-memory snapshot (decode + compile)",
		"ReloadSwap           SpotCheck + atomic Live swap between two prebuilt indexes",
		"GeoDNSQuery          one TXT query through the dnsserve handler, no socket",
		"GeoDNSServeUDP       sustained loopback UDP query/response round trips (p99_us)",
		"LintModule           lint.LoadModule + all analyzers self-hosted over this repo",
	}
}

func newSuite(src *geoloc.Source) (*suite, error) {
	kind, err := src.Kind()
	if err != nil {
		return nil, err
	}
	if kind != geoloc.FromCorpus {
		return nil, fmt.Errorf(
			"the benchmark suite measures the learning pipeline and needs -corpus (got -%s)", kind)
	}
	corpus := src.Corpus
	resolved, err := src.Resolve(geoloc.Options{})
	if err != nil {
		return nil, fmt.Errorf("loading corpus (run from the repo root, or pass -corpus): %w", err)
	}
	s := &suite{in: *resolved.Inputs, res: resolved.Result, hosts: corpusHosts(*resolved.Inputs)}
	if len(s.hosts) == 0 {
		return nil, fmt.Errorf("corpus %s has no hostnames to benchmark", corpus)
	}
	in := s.in

	// The snapshot benchmarks measure the serving cold path: one
	// serialized image in memory, decoded + compiled per iteration.
	var snapBuf bytes.Buffer
	if err := geoloc.Save(&snapBuf, s.res, nil); err != nil {
		return nil, err
	}
	snapBytes := snapBuf.Bytes()

	seqCfg := core.DefaultConfig()
	seqCfg.Workers = 1
	parCfg := core.DefaultConfig()
	// CoreRunParallel must drive the worker pool for real: BENCH_0005
	// recorded workers:1 (GOMAXPROCS on a single-CPU bench host), which
	// made it a duplicate of CoreRunSequential. Pin to min(4, GOMAXPROCS)
	// so big hosts do not skew the trajectory, floored at 2 so the pool
	// path (goroutine fan-out, ordered merge) is exercised everywhere.
	parCfg.Workers = min(4, runtime.GOMAXPROCS(0))
	if parCfg.Workers < 2 {
		parCfg.Workers = 2
	}
	suffix := largestSuffix(in)

	s.defs = []benchDef{
		{"CoreRunSequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(s.in, seqCfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"CoreRunParallel", func(b *testing.B) {
			b.ReportMetric(float64(parCfg.Workers), "workers")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(s.in, parCfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Stage2TagSuffix", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.TagSuffix(s.in, seqCfg, suffix); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"GeolocBatchColdCompile", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cold, err := geoloc.New(cloneResult(s.res), geoloc.Options{Dict: s.in.Dict, PSL: s.in.PSL, CacheSize: -1})
				if err != nil {
					b.Fatal(err)
				}
				cold.LookupBatch(s.hosts)
			}
		}},
		{"GeolocBatchWarm", func(b *testing.B) {
			ix, err := geoloc.New(s.res, geoloc.Options{Dict: s.in.Dict, PSL: s.in.PSL, CacheSize: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(s.hosts)), "hostnames")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.LookupBatch(s.hosts)
			}
		}},
		{"GeolocBatchCached", func(b *testing.B) {
			ix, err := geoloc.New(s.res, geoloc.Options{Dict: s.in.Dict, PSL: s.in.PSL})
			if err != nil {
				b.Fatal(err)
			}
			ix.LookupBatch(s.hosts) // warm the LRU
			b.ReportMetric(float64(len(s.hosts)), "hostnames")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.LookupBatch(s.hosts)
			}
		}},
		{"GoldenEndToEnd", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in, err := geoloc.LoadInputs(corpus)
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
		{"SnapshotLoad", func(b *testing.B) {
			b.ReportMetric(float64(len(snapBytes)), "snapshot-bytes")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := geoloc.Load(bytes.NewReader(snapBytes),
					geoloc.Options{Dict: s.in.Dict, PSL: s.in.PSL, CacheSize: -1}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ReloadSwap", func(b *testing.B) {
			// Two prebuilt indexes alternate through a Live handle: the
			// benchmark times only the validated hot-swap step geoserve
			// performs on SIGHUP — SpotCheck plus one atomic store — not
			// the replacement build, which happens off the request path.
			ixA, err := geoloc.New(s.res, geoloc.Options{Dict: s.in.Dict, PSL: s.in.PSL, CacheSize: -1})
			if err != nil {
				b.Fatal(err)
			}
			ixB, err := geoloc.New(s.res, geoloc.Options{Dict: s.in.Dict, PSL: s.in.PSL, CacheSize: -1})
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
				if err := geoloc.SpotCheck(live.Index(), next, 16); err != nil {
					b.Fatal(err)
				}
				live.Swap(next)
			}
		}},
		{"GeoDNSQuery", func(b *testing.B) {
			// The socketless DNS serving path: decode, rate-limit check,
			// index lookup, answer build, encode — geodns's per-packet
			// work with the kernel taken out of the measurement.
			srv, pkt, err := dnsSetup(s)
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
		{"GeoDNSServeUDP", func(b *testing.B) {
			// The full transport: a loopback UDP client driving the real
			// serve loop, one query in flight at a time. p99_us reports
			// the tail of the per-round-trip latencies.
			srv, pkt, err := dnsSetup(s)
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
		{"LintModule", func(b *testing.B) {
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
	return s, nil
}

// tracedCounters runs one traced pipeline and index build and flattens
// the span aggregates into record counters: span_<stage>_count,
// span_<stage>_us, and span_<stage>_<counter> rows. It runs no lookups:
// the index opens no span for them, so they would add no counter.
func (s *suite) tracedCounters() map[string]int64 {
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

// commitID returns the override, or the best-effort commit stamp of the
// checkout in the working directory.
func commitID(override string) string {
	if override != "" {
		return override
	}
	return gitCommit(".")
}

// gitCommit returns `git rev-parse --short HEAD` of the checkout at dir
// ("" outside one), suffixed "-dirty" when tracked files differ from
// HEAD, so a record made before its change is committed does not pass
// for a record of the parent commit.
func gitCommit(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	id := strings.TrimSpace(string(out))
	// diff exits 1 when the tracked files differ from HEAD.
	var ee *exec.ExitError
	if err := exec.Command("git", "-C", dir, "diff", "--quiet", "HEAD", "--").Run(); errors.As(err, &ee) && ee.ExitCode() == 1 {
		id += "-dirty"
	}
	return id
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "geobench:", err)
	os.Exit(2)
}
