package hoiho_bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/geoloc"
	"hoiho/internal/itdk"
	"hoiho/internal/obs"
	"hoiho/internal/qlog"
	"hoiho/internal/rtt"
	"hoiho/internal/synth"
)

// goldenDir holds the committed golden corpus (a small seeded synthetic
// world written to the on-disk ITDK format) and the expected learned
// conventions. TestGoldenPipeline diffs the pipeline's output against it
// byte-for-byte; `go test -run TestGoldenPipeline -update` regenerates
// both after an intentional behaviour change.
const goldenDir = "testdata/golden"

var updateGolden = flag.Bool("update", false,
	"regenerate testdata/golden (corpus + expected conventions) instead of diffing")

// goldenParams is the fixed recipe behind the committed corpus: small
// enough to learn in well under a second, varied enough to exercise
// every stage (multiple convention styles, tiny operators, noise
// operators, a spoofing VP that CleanSpoofers removes).
func goldenParams() synth.Params {
	return synth.Params{
		Name:          "golden",
		Seed:          42,
		Operators:     8,
		Tiny:          4,
		Noise:         4,
		VPs:           10,
		SpoofVPs:      1,
		HostnameRate:  0.6,
		AnonymousFrac: 0.3,
		Delay:         rtt.DefaultDelayModel(),
		TracedVPsMax:  2,
		NoiseRouters:  10,
	}
}

// regenerateGolden rebuilds the committed corpus and expected output.
// The expected conventions are computed from the *reloaded* corpus (not
// the in-memory world), so the committed pair is exactly what the test
// will later reproduce.
func regenerateGolden(t *testing.T) {
	t.Helper()
	w, err := synth.Generate(goldenParams())
	if err != nil {
		t.Fatal(err)
	}
	w.CleanSpoofers()
	writeCorpus(t, goldenDir, w)
	writeGoldenFile(t, "conventions.txt", func(f *os.File) error {
		res, err := runGolden(t)
		if err != nil {
			return err
		}
		return core.WriteConventions(f, res)
	})
	t.Logf("regenerated %s; commit the new files if the change is intentional", goldenDir)
}

// corpusFiles names the files hoiho -corpus reads, in the order
// writeCorpus writes them.
var corpusFiles = []string{"corpus.nodes", "corpus.names", "corpus.geo", "rtt.matrix"}

// writeCorpus writes a world's corpus to dir in the on-disk ITDK
// format, with the writers geosynth uses.
func writeCorpus(t *testing.T, dir string, w *synth.World) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	writers := []func(*os.File) error{
		func(f *os.File) error { return itdk.WriteNodes(f, w.Corpus) },
		func(f *os.File) error { return itdk.WriteNames(f, w.Corpus) },
		func(f *os.File) error { return itdk.WriteGeo(f, w.Corpus) },
		func(f *os.File) error { return rtt.WriteMatrix(f, w.Matrix) },
	}
	for i, name := range corpusFiles {
		writeFile(t, filepath.Join(dir, name), writers[i])
	}
}

// writeGoldenFile writes one file of testdata/golden.
func writeGoldenFile(t *testing.T, name string, fn func(*os.File) error) {
	t.Helper()
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(goldenDir, name), fn)
}

func writeFile(t *testing.T, path string, fn func(*os.File) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fn(f); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// runGolden learns conventions from the on-disk golden corpus exactly
// as the CLI would: default configuration over LoadInputs.
func runGolden(t *testing.T) (*core.Result, error) {
	t.Helper()
	in, err := geoloc.LoadInputs(goldenDir)
	if err != nil {
		return nil, err
	}
	return core.Run(in, core.DefaultConfig())
}

// TestGoldenPipeline is the end-to-end regression gate: the pipeline
// over the committed corpus must reproduce the committed conventions
// file byte-for-byte. Any drift in parsing, tagging, candidate
// generation, evaluation, learning, selection, classification, or
// serialization fails this test.
func TestGoldenPipeline(t *testing.T) {
	if *updateGolden {
		regenerateGolden(t)
		return
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, "conventions.txt"))
	if err != nil {
		t.Fatalf("missing golden output (run `go test -run TestGoldenPipeline -update`): %v", err)
	}
	res, err := runGolden(t)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NCs) == 0 {
		t.Fatal("golden corpus learned no conventions")
	}
	if len(res.UsableNCs()) == 0 {
		t.Fatal("golden corpus learned no usable conventions")
	}
	var got bytes.Buffer
	if err := core.WriteConventions(&got, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("learned conventions drifted from %s/conventions.txt\n%s\n(if intentional, regenerate with -update)",
			goldenDir, diffSummary(want, got.Bytes()))
	}
}

// benchWorldSeed is the seed of the benchmark-shaped world that
// TestGoldenBenchWorld learns. Its golden files sit beside the main
// corpus: the learned conventions, and a SHA-256 manifest of the
// generated corpus (in sha256sum's format) so that generator drift
// fails apart from learning drift.
const benchWorldSeed = 401

const (
	benchWorldConventions = "world401.conventions.txt"
	benchWorldManifest    = "world401.sha256"
)

// benchWorld generates the world perfbench's workloads run on (its
// newWorld in perfbench/world.go), at scale 1 and benchWorldSeed: the
// ipv4-aug2020 preset with spoofing vantage points cleaned.
func benchWorld(t *testing.T) *synth.World {
	t.Helper()
	p, err := synth.ITDKPreset("ipv4-aug2020")
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = benchWorldSeed
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	w.CleanSpoofers()
	return w
}

// corpusManifest renders the SHA-256 of each corpus file in dir, one
// "digest  name" line each.
func corpusManifest(t *testing.T, dir string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range corpusFiles {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%x  %s\n", sha256.Sum256(b), name)
	}
	return buf.Bytes()
}

// TestGoldenBenchWorld pins learning beyond the golden corpus: the
// benchmark's world at scale 1 (about 5k routers, 30 times the golden
// corpus) is written to disk and learned the way hoiho -corpus learns
// it, and the conventions must match the committed file byte for byte.
// `go test -run TestGoldenBenchWorld -update` regenerates both files.
func TestGoldenBenchWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and learns a 5k-router world")
	}
	dir := t.TempDir()
	writeCorpus(t, dir, benchWorld(t))
	manifest := corpusManifest(t, dir)
	in, err := geoloc.LoadInputs(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(in, (&geoloc.Source{Corpus: dir}).CoreConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := core.WriteConventions(&got, res); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		writeGoldenFile(t, benchWorldManifest, func(f *os.File) error { _, err := f.Write(manifest); return err })
		writeGoldenFile(t, benchWorldConventions, func(f *os.File) error { _, err := got.WriteTo(f); return err })
		t.Logf("regenerated %s and %s; commit them if the change is intentional",
			benchWorldManifest, benchWorldConventions)
		return
	}
	wantManifest, err := os.ReadFile(filepath.Join(goldenDir, benchWorldManifest))
	if err != nil {
		t.Fatalf("missing corpus manifest (run `go test -run TestGoldenBenchWorld -update`): %v", err)
	}
	if !bytes.Equal(manifest, wantManifest) {
		t.Fatalf("synth generator drift: the seed-%d world no longer matches %s/%s, so the learning golden cannot be compared\n%s",
			benchWorldSeed, goldenDir, benchWorldManifest, diffSummary(wantManifest, manifest))
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, benchWorldConventions))
	if err != nil {
		t.Fatalf("missing golden output (run `go test -run TestGoldenBenchWorld -update`): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("learned conventions drifted from %s/%s\n%s\n(if intentional, regenerate with -update)",
			goldenDir, benchWorldConventions, diffSummary(want, got.Bytes()))
	}
}

// diffSummary renders the first divergent line of two byte slices — a
// byte-level diff of a 100-line file is unreadable in CI logs.
func diffSummary(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first divergence at line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d lines, got %d", len(wl), len(gl))
}

// explainProbes is the fixed hostname set behind the explain golden,
// one per decision shape: a learned CLLI overlay, a learned IATA
// overlay, a dictionary place resolution, a dictionary CLLI
// resolution, a convention whose regexes all miss, and a suffix no
// convention covers.
var explainProbes = []string{
	"ge-0-1.core4.lsbn-pt.coreband.net.au",
	"te0-0-2.gw3.trr.us.fiberlink.net",
	"et-2-1-0.zagreb.hr.backhaul.co.uk",
	"as64929-acme.et-2-1-0.r02.hlsnfn.fi.bb.interpath.net",
	"ptr-207.interpath.net",
	"host.unknown.example.org",
}

// renderExplainGolden learns from the committed corpus (one worker, so
// the run is fully sequential) and renders every probe's decision
// trace in both shapes — the hoiho -explain text report and the
// /v1/explain JSON document — into one byte-stable report.
func renderExplainGolden(t *testing.T) []byte {
	t.Helper()
	in, err := geoloc.LoadInputs(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	res, err := core.Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := geoloc.New(res, geoloc.Options{Dict: in.Dict, PSL: in.PSL})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, host := range explainProbes {
		ex := ix.Explain(host)
		js, err := json.Marshal(ex)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== %s\n%sjson: %s\n\n", host, ex.Text(), js)
	}
	return buf.Bytes()
}

// TestGoldenExplain pins the explain surface end to end: the decision
// traces for the probe set — text and JSON — must match the committed
// report byte-for-byte, and two renderings within one run must agree,
// so serving /v1/explain and hoiho -explain give byte-identical output
// across runs. Regenerate with -update after an intentional change.
func TestGoldenExplain(t *testing.T) {
	goldenPath := filepath.Join(goldenDir, "explain.txt")
	got := renderExplainGolden(t)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s; commit it if the change is intentional", goldenPath)
		return
	}
	if again := renderExplainGolden(t); !bytes.Equal(got, again) {
		t.Fatalf("explain report differs between two identical runs\n%s", diffSummary(got, again))
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing explain golden (run `go test -run TestGoldenExplain -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("explain traces drifted from %s\n%s\n(if intentional, regenerate with -update)",
			goldenPath, diffSummary(want, got))
	}
}

// TestGoldenTraceDeterministic locks down the trace export contract:
// two traced runs of the committed corpus — frozen clock, sequential
// worker so worker attribution is fixed — emit byte-identical JSONL.
// When HOIHO_GOLDEN_TRACE is set the first trace is written there (CI
// uploads it as an artifact when the golden suite fails).
func TestGoldenTraceDeterministic(t *testing.T) {
	if *updateGolden {
		t.Skip("golden regeneration run")
	}
	in, err := geoloc.LoadInputs(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	trace := func() []byte {
		cfg := core.DefaultConfig()
		cfg.Workers = 1
		cfg.Tracer = obs.New(obs.Options{Clock: obs.FrozenClock, RetainSpans: true})
		if _, err := core.Run(in, cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Tracer.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	first := trace()
	if len(first) == 0 {
		t.Fatal("traced golden run exported nothing")
	}
	if out := os.Getenv("HOIHO_GOLDEN_TRACE"); out != "" {
		if err := os.WriteFile(out, first, 0o644); err != nil {
			t.Fatalf("writing trace artifact: %v", err)
		}
	}
	second := trace()
	if !bytes.Equal(first, second) {
		t.Fatalf("trace JSONL differs between two identical runs\n%s", diffSummary(first, second))
	}
}

// renderQlogGolden drives the golden probe set through a sampled,
// frozen-clock query log over the golden index and returns the JSONL
// bytes. Sample: 2 on purpose — the artifact proves the deterministic
// counter-based sampler keeps the same records every run, not just
// that an unsampled log is stable.
func renderQlogGolden(t *testing.T) []byte {
	t.Helper()
	in, err := geoloc.LoadInputs(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	res, err := core.Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := geoloc.New(res, geoloc.Options{Dict: in.Dict, PSL: in.PSL})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ql, err := qlog.New(qlog.Options{
		W:      &buf,
		Sample: 2,
		Clock:  func() time.Time { return time.UnixMicro(1600000000000000).UTC() },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range explainProbes {
		id := ql.NextID()
		if id == "" {
			continue // sampled out
		}
		r := qlog.Record{
			Front:    "http",
			Op:       "GET /v1/geolocate",
			ID:       id,
			Hostname: host,
			Status:   200,
			Outcome:  "miss",
		}
		if _, ok := ix.Lookup(host); ok {
			r.Outcome = "ok"
		}
		ql.Log(r)
	}
	if err := ql.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenQueryLogDeterministic locks down the query-log contract
// the same way TestGoldenTraceDeterministic does for spans: a frozen
// clock plus the counter-based sampler make two identical runs emit
// byte-identical JSONL. When HOIHO_GOLDEN_QLOG is set the first log is
// written there (CI uploads it next to the golden trace on failure).
func TestGoldenQueryLogDeterministic(t *testing.T) {
	if *updateGolden {
		t.Skip("golden regeneration run")
	}
	first := renderQlogGolden(t)
	if len(first) == 0 {
		t.Fatal("query log of the golden probes is empty")
	}
	if out := os.Getenv("HOIHO_GOLDEN_QLOG"); out != "" {
		if err := os.WriteFile(out, first, 0o644); err != nil {
			t.Fatalf("writing qlog artifact: %v", err)
		}
	}
	second := renderQlogGolden(t)
	if !bytes.Equal(first, second) {
		t.Fatalf("query log differs between two identical runs\n%s", diffSummary(first, second))
	}
	// The sampler must actually have dropped records — half the probe
	// set at Sample: 2 — or the artifact proves less than it claims.
	if got := bytes.Count(first, []byte("\n")); got != (len(explainProbes)+1)/2 {
		t.Fatalf("sampled log has %d lines, want %d of %d probes",
			got, (len(explainProbes)+1)/2, len(explainProbes))
	}
}
