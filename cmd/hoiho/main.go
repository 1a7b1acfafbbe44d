// Command hoiho learns naming conventions that extract geographic hints
// from router hostnames — the reproduction of CAIDA's sc_hoiho
// geolocation module. It reads an ITDK-shaped corpus and RTT matrix
// (e.g. produced by geosynth), runs the five-stage pipeline, and prints
// the learned regexes, custom geohints, and classification per suffix.
//
// Usage:
//
//	hoiho -corpus data/aug2020 [-workers n] [-no-learn] [-suffix ntt.net] [-geolocate host]
//	hoiho -corpus data/aug2020 -write-nc conventions.txt
//	hoiho -nc conventions.txt -geolocate host      # apply without a corpus
//	hoiho -snapshot index.snap -geolocate host     # apply a compiled snapshot
//	hoiho -nc conventions.txt -explain host        # full decision trace
//	hoiho -nc conventions.txt -usable-only -geolocate host  # as the daemons' -usable-only
//	hoiho -corpus data/aug2020 -trace out.jsonl -tracesummary   # profile the run
//
// -explain prints the complete decision trace for one hostname: the
// suffix dispatch, every candidate regex tried in order, the
// extraction, whether the hint resolved through the learned overlay or
// the dictionary, and the final geohint with the convention's PPV
// evidence — the CLI twin of geoserve's /v1/explain endpoint.
// -explain-json renders the same trace as the /v1/explain JSON
// document. -version prints build info and exits.
//
// -usable-only restricts hoiho to the good and promising conventions:
// it prints only those, and -geolocate and -explain answer through
// only those, exactly as geoserve and geodns -usable-only serve.
// -write-nc still writes every convention.
//
// The -corpus directory must contain corpus.nodes, corpus.names, and
// rtt.matrix (corpus.geo is optional and ignored by learning). A
// conventions file written with -write-nc can later be applied with
// -nc — and a compiled-index snapshot written by geosnap with
// -snapshot — without any measurement data: the paper's
// published-regexes workflow. All three inputs resolve through the
// shared geoloc.Source API, the same compiled-index path the geoserve
// daemon serves from. -write-nc replaces its file atomically (a temp
// file renamed into place), so a daemon reloading from it never reads
// a partial file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"hoiho/internal/asn"
	"hoiho/internal/buildinfo"
	"hoiho/internal/core"
	"hoiho/internal/geoloc"
	"hoiho/internal/names"
	"hoiho/internal/obs"
)

func main() {
	src := &geoloc.Source{}
	src.RegisterFlags(flag.CommandLine)
	writeNC := flag.String("write-nc", "", "write the learned conventions to this file (atomically)")
	showNames := flag.Bool("names", false, "also learn and print router-name conventions")
	showASN := flag.Bool("asn", false, "also learn and print ASN conventions (needs asn.map)")
	onlySuffix := flag.String("suffix", "", "report only this suffix")
	locate := flag.String("geolocate", "", "after learning, geolocate this hostname")
	explainHost := flag.String("explain", "", "print the full decision trace for this hostname")
	explainJSON := flag.Bool("explain-json", false, "render -explain as the /v1/explain JSON document")
	usableOnly := flag.Bool("usable-only", false,
		"print, geolocate and explain through good/promising conventions only, as the daemons' -usable-only serves")
	traceOut := flag.String("trace", "", "write a JSONL span trace of the run to this file")
	traceSummary := flag.Bool("tracesummary", false,
		"print the aggregated per-stage/per-suffix span table to stderr")
	runtimeStats := flag.Bool("runtimestats", false,
		"sample runtime telemetry (heap, goroutines, GC pauses) during the run and print it to stderr")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "hoiho")
		return
	}
	kind, err := src.Kind()
	if err == nil && (*showNames || *showASN) && kind != geoloc.FromCorpus {
		err = fmt.Errorf("-names and -asn require -corpus")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hoiho:", err)
		flag.Usage()
		os.Exit(2)
	}
	// asn.map is read before learning, so a missing or malformed file
	// fails in milliseconds, not after a full run.
	var asnMap asn.AddrMap
	if *showASN {
		if asnMap, err = loadASNMap(filepath.Join(src.Corpus, "asn.map")); err != nil {
			fatal(err)
		}
	}

	// One tracer covers the whole invocation: the learning run or
	// snapshot load and the serving-index build record into it (lookups
	// open no span).
	var tracer *obs.Tracer
	if *traceOut != "" || *traceSummary || *runtimeStats {
		tracer = obs.New(obs.Options{})
	}
	// A CLI run lasts seconds, not hours: sample at 1s so a learning run
	// yields a usable trajectory (the first sample is synchronous, so
	// even a sub-second run records one).
	var stopSampler func()
	if *runtimeStats {
		stopSampler = tracer.StartRuntimeSampler(obs.RuntimeOptions{Interval: time.Second})
	}

	// One Resolve covers every input kind: snapshot parse, conventions
	// read, or a full learning run. The compiled Index rides along for
	// -geolocate and -explain, holding what the daemons would serve with
	// the same -usable-only; the corpus inputs ride along for -names/-asn.
	// The Result keeps every convention, so -write-nc is unaffected.
	resolved, err := src.Resolve(geoloc.Options{Tracer: tracer, UsableOnly: *usableOnly})
	if err != nil {
		fatal(err)
	}
	res, in := resolved.Result, resolved.Inputs

	if *writeNC != "" {
		if _, err := geoloc.WriteAtomic(*writeNC, func(w io.Writer) error {
			return core.WriteConventions(w, res)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d conventions to %s\n", len(res.NCs), *writeNC)
	}

	var suffixes []string
	for s := range res.NCs {
		if *onlySuffix != "" && s != *onlySuffix {
			continue
		}
		suffixes = append(suffixes, s)
	}
	sort.Strings(suffixes)

	for _, s := range suffixes {
		nc := res.NCs[s]
		if *usableOnly && !nc.Class.Usable() {
			continue
		}
		t := nc.Tally
		fmt.Printf("%s: %s  TP=%d FP=%d FN=%d UNK=%d ATP=%d PPV=%.1f%% hints=%d\n",
			s, nc.Class, t.TP, t.FP, t.FN, t.UNK, t.ATP(), 100*t.PPV(), t.UniqueHints)
		for _, r := range nc.Regexes {
			fmt.Printf("  regex [%s] %s\n", r.Hint, r)
		}
		for _, lh := range nc.Learned {
			fmt.Printf("  learned %s (tp=%d fp=%d)\n", lh, lh.TP, lh.FP)
		}
	}
	fmt.Printf("\nsuffixes with apparent geohints: %d; routers with geohints: %d; geolocated: %d\n",
		res.SuffixesWithGeohint, res.RoutersWithGeohint, res.RoutersGeolocated)

	if *showNames {
		fmt.Println("\nrouter-name conventions:")
		for _, c := range names.Learn(in.Corpus, in.PSL) {
			fmt.Printf("  %s: %s (routers=%d collisions=%d missed=%d)\n",
				c.Suffix, c.Pattern, c.Routers, c.Collisions, c.Missed)
		}
	}
	if *showASN {
		fmt.Println("\nASN conventions:")
		for _, c := range asn.Learn(in.Corpus, in.PSL, asnMap) {
			fmt.Printf("  %s: %s (tp=%d fp=%d ppv=%.0f%%)\n",
				c.Suffix, c.Pattern, c.TP, c.FP, 100*c.PPV())
		}
	}

	// The telemetry is complete here: lookups open no span, so it is
	// written before -geolocate and -explain, whose misses exit 1.
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteJSONL(f); err != nil {
			fatal(err) // exits; the OS reclaims the half-written file's fd
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hoiho: wrote %d spans to %s\n", tracer.SpanCount(), *traceOut)
	}
	if *traceSummary {
		if err := tracer.Summary().Format(os.Stderr); err != nil {
			fatal(err)
		}
	}
	if *runtimeStats {
		stopSampler()
		if err := obs.FormatRuntimeSamples(os.Stderr, tracer.RuntimeSamples()); err != nil {
			fatal(err)
		}
	}

	if *locate != "" {
		ix := resolved.Index
		suffix := ix.Suffix(*locate)
		if ix.Convention(suffix) == nil {
			if *usableOnly {
				fatal(fmt.Errorf("no good or promising convention for suffix %q", suffix))
			}
			fatal(fmt.Errorf("no convention learned for suffix %q", suffix))
		}
		g, ok := ix.Lookup(*locate)
		if !ok {
			fatal(fmt.Errorf("no regex in %s matches %q", suffix, *locate))
		}
		learned := ""
		if g.Learned {
			learned = " (learned hint)"
		}
		fmt.Printf("\n%s -> %s via %s %q%s at %s\n",
			*locate, g.Loc.String(), g.Type, g.Hint, learned, g.Loc.Pos)
	}

	if *explainHost != "" {
		ex := resolved.Index.Explain(*explainHost)
		if *explainJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(ex); err != nil {
				fatal(err)
			}
		} else {
			fmt.Print(ex.Text())
		}
	}
}

// loadASNMap parses "asn <addr> <asn>" records.
func loadASNMap(path string) (asn.AddrMap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := asn.AddrMap{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 3 || fields[0] != "asn" {
			return nil, fmt.Errorf("asn.map: malformed line %q", sc.Text())
		}
		addr, err := netip.ParseAddr(fields[1])
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return nil, err
		}
		m[addr] = uint32(n)
	}
	return m, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hoiho:", err)
	os.Exit(1)
}
