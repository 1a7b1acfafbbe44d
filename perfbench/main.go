// Command perfbench is the repository's benchmark. From one process it
// builds geoserve, geodns and hoiho from the checkout it runs in,
// generates a seeded synthetic ITDK world, learns its naming
// conventions with hoiho, serves them with the daemons as shipped, and
// drives one of three workloads against them, checking every answer:
//
//	http-zipf    geoserve, Zipf-popular hostnames: HTTP, JSON and cache hits
//	dns-uniform  geodns, uniformly drawn hostnames: DNS wire, regex misses
//	learn        hoiho learning from the corpus on disk, then applying it
//
// Run it from the repository root through its launcher:
//
//	sh perfbench/run.sh --workload http-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
// per-layer metrics, from a run that also writes a span trace under
// .bench_build/traces. The line before it stamps the result with the
// source fingerprint, Go version, CPU count and steal fraction.
//
// Steadiness tooling:
//
//	perfbench -repeat 10 --workload http-zipf,learn --seconds 10 -o a.json
//	perfbench -compare a.json,b.json
//
// -repeat runs the benchmark once per seed, each in a fresh process,
// and prints every metric's median, quartiles and spread; -compare
// checks two such result sets against the bounds in BENCHMARK.json.
// README.md in this directory defines every metric.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"hoiho/internal/synth"
)

func main() {
	if os.Getenv(launchEnv) == "1" {
		os.Exit(launch(os.Args[1:]))
	}
	root := flag.String("root", ".", "repository checkout to build and measure")
	workload := flag.String("workload", "", "workload to run: http-zipf, dns-uniform or learn")
	seed := flag.Int64("seed", 1, "seed of the world and the request streams")
	seconds := flag.Int("seconds", 10, "length of the measurement, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced diagnostic run and reports per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workloads this many times, one seed each, and summarize")
	out := flag.String("o", "", "with -repeat, write the result set to this file")
	compare := flag.String("compare", "", "compare two result sets, given as a,b, against BENCHMARK.json")
	flag.Parse()

	var err error
	switch {
	case *compare != "":
		err = runCompare(*root, *compare)
	case *repeat > 0:
		err = runRepeat(*root, *workload, *seed, *seconds, *trace, *repeat, *out)
	default:
		err = runOnce(*root, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp identifies what produced a result.
type stamp struct {
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	NProc     int     `json:"nproc"`
	StealFrac float64 `json:"steal_frac"`
}

// env is one run's shared state.
type env struct {
	root, work string
	binDir     string // where geoserve, geodns and hoiho were built
	scale      int    // world size, a multiple of the preset
	seed       int64
	seconds    time.Duration
	nproc      int
	world      *synth.World
	corpusDir  string
	hosts      []string
	snap       []byte
	snapPath   string
	ref        []answer
	probeID    int
	bench      *benchConfig
	log        io.Writer
}

func (e *env) binPath(name string) string {
	return filepath.Join(e.binDir, name)
}

// conns is how many connections a phase keeps busy: two per CPU. With
// one per CPU the vCPUs idle between requests, and every request then
// pays for waking them, which a loaded host makes slow: measured, the
// throughput fell 16% from a quiet to a busy period with one connection
// per CPU and 3% with two.
func (e *env) conns() int { return 2 * e.nproc }

// warmup is how long each phase runs before its measured window: long
// enough for the daemon's cache and the Go runtimes on both sides to
// settle.
func (e *env) warmup() time.Duration { return min(time.Second, e.seconds/10) }

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

func runOnce(root, workload string, seed int64, seconds time.Duration, traced bool) error {
	spec, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want http-zipf, dns-uniform or learn)", workload)
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	bench, err := loadBench(root)
	if err != nil {
		return err
	}
	binDir := filepath.Join(root, ".bench_build", "bin")
	if err := build(root, binDir); err != nil {
		return err
	}
	e := &env{root: root, binDir: binDir, scale: worldScale, seed: seed, seconds: seconds,
		nproc: runtime.NumCPU(), bench: bench, log: os.Stdout}
	e.work = filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	defer func() {
		if err := os.RemoveAll(e.work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cleanup:", err)
		}
	}()
	stat0 := readCPUStat()

	var res *result
	if traced {
		res, err = runTraced(e, workload, spec)
	} else {
		res, err = spec.run(e)
	}
	if err != nil {
		return err
	}
	st := stamp{Commit: sourceFingerprint(root), GoVersion: runtime.Version(), NProc: e.nproc, StealFrac: stealFrac(stat0, readCPUStat())}
	sb, err := json.Marshal(st)
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n%s\n", sb, rb)
	return nil
}

// build compiles the three programs the benchmark drives into binDir
// from the checkout's own source.
func build(root, binDir string) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/geoserve", "./cmd/geodns", "./cmd/hoiho")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build: %w: %s", err, stderr.String())
	}
	return nil
}

// prepare generates the world, writes its corpus and learns it with
// hoiho, then compiles the snapshot the daemons serve and the reference
// answers they are checked against. It returns the hoiho run.
func prepare(e *env) (hoihoRun, error) {
	var err error
	if e.world, err = newWorld(e.seed, e.scale); err != nil {
		return hoihoRun{}, err
	}
	e.corpusDir = filepath.Join(e.work, "corpus")
	if err = writeCorpus(e.corpusDir, e.world); err != nil {
		return hoihoRun{}, err
	}
	run, err := runHoiho(e, 0)
	if err != nil {
		return hoihoRun{}, err
	}
	if _, e.snap, err = compileSnapshot(run.out); err != nil {
		return hoihoRun{}, err
	}
	e.snapPath = filepath.Join(e.work, "index.snap")
	if err = os.WriteFile(e.snapPath, e.snap, 0o644); err != nil {
		return hoihoRun{}, err
	}
	e.hosts = hostnames(e.world)
	if e.ref, err = reference(e.world, e.snap, e.hosts); err != nil {
		return hoihoRun{}, err
	}
	e.probeID = -1
	for i, a := range e.ref {
		if a.located {
			e.probeID = i
			break
		}
	}
	if e.probeID < 0 {
		return hoihoRun{}, errors.New("no hostname of the world is located")
	}
	e.logf("world seed %d: %d hostnames, %d located, snapshot %d bytes",
		e.seed, len(e.hosts), countLocated(e.ref), len(e.snap))
	return run, nil
}

func countLocated(ref []answer) int {
	n := 0
	for _, a := range ref {
		if a.located {
			n++
		}
	}
	return n
}

// hoihoRun is one hoiho -corpus <dir> -write-nc <file> run.
type hoihoRun struct {
	wall  float64 // seconds
	cpu   float64 // user+system CPU seconds, all threads
	cal   float64 // calibration ns per unit meanwhile
	rss   int64   // peak resident set, bytes
	steal float64 // share of machine CPU time stolen meanwhile
	out   []byte  // the conventions file it wrote
}

// runHoiho runs hoiho through this program re-executed as a launcher
// (see launch): Go starts a child with vfork, and Linux then counts the
// parent's peak resident set in the child's rusage, so hoiho started
// from the benchmark, which holds the world in memory, would report
// the benchmark's peak instead of its own.
func runHoiho(e *env, i int) (hoihoRun, error) {
	self, err := os.Executable()
	if err != nil {
		return hoihoRun{}, err
	}
	out := filepath.Join(e.work, fmt.Sprintf("conventions-%d.txt", i))
	cmd := exec.Command(self, e.binPath("hoiho"), "-corpus", e.corpusDir, "-write-nc", out)
	cmd.Env = append(os.Environ(), launchEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	st0 := readCPUStat()
	cal, _, err := calibrated(cmd.Run)
	if err != nil {
		return hoihoRun{}, fmt.Errorf("hoiho: %w: %s", err, stderr.String())
	}
	var l launched
	if err := json.Unmarshal(stdout.Bytes(), &l); err != nil {
		return hoihoRun{}, fmt.Errorf("hoiho launcher: %w: %q", err, stdout.String())
	}
	r := hoihoRun{wall: l.WallS, cpu: l.CPUS, cal: cal, rss: l.MaxRSSKB << 10, steal: stealFrac(st0, readCPUStat())}
	r.out, err = os.ReadFile(out)
	return r, err
}

// launchEnv, set to 1, makes this program a launcher: it runs the
// command its arguments name, with the command's output on its own
// standard error, and prints the command's wall time, CPU time and peak
// resident set as one JSON object. Its own resident set is a few MB, which is
// all of it the command's rusage can carry.
const launchEnv = "PERFBENCH_LAUNCH"

// launched is what the launcher prints.
type launched struct {
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	MaxRSSKB int64   `json:"maxrss_kb"`
}

// launch is the launcher's main; it returns the exit code.
func launch(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench launcher: no command")
		return 2
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench launcher:", err)
		return 1
	}
	ps := cmd.ProcessState
	l := launched{WallS: time.Since(t0).Seconds(), CPUS: (ps.UserTime() + ps.SystemTime()).Seconds()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		l.MaxRSSKB = ru.Maxrss // kB on Linux
	}
	if err := json.NewEncoder(os.Stdout).Encode(l); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench launcher:", err)
		return 1
	}
	return 0
}

// workloadSpec is one workload: its end-to-end run and the stream and
// front its traced run replays.
type workloadSpec struct {
	kind    string
	primary string // "http" or "dns": the front whose figures are the workload's own
	run     func(e *env) (*result, error)
}

var workloads = map[string]workloadSpec{
	"http-zipf":   {kind: streamZipf, primary: "http", run: runServing(streamZipf, "http")},
	"dns-uniform": {kind: streamUniform, primary: "dns", run: runServing(streamUniform, "dns")},
	"learn":       {kind: streamUniform, primary: "http", run: runLearn},
}

// coldStartCount is how many daemon cold starts a serving run times
// for setup_s, in coldBlocks blocks. A single start varies by half
// its time within one run.
const coldStartCount = 33

func newFront(e *env, name string) (front, error) {
	if name == "dns" {
		q, err := dnsQueries(e.hosts)
		return &dnsFront{hosts: e.hosts, ref: e.ref, queries: q, verify: newDNSVerifier(e.hosts, e.ref)}, err
	}
	reqs, err := singleRequests(e.hosts)
	return &httpFront{hosts: e.hosts, ref: e.ref, single: reqs, verify: newHTTPVerifier(e.hosts, e.ref)}, err
}

// runServing is the end-to-end run of a serving workload: half the
// measurement on the single (HTTP) or UDP phase, half on the batch
// (HTTP) or TCP-burst phase.
func runServing(kind, frontName string) func(e *env) (*result, error) {
	return func(e *env) (*result, error) {
		run, err := prepare(e)
		if err != nil {
			return nil, err
		}
		ls, err := learnSeries(e, run, time.Now())
		if err != nil {
			return nil, err
		}
		return serveWorkload(e, kind, frontName, ls)
	}
}

// serveWorkload measures a prepared serving workload.
func serveWorkload(e *env, kind, frontName string, ls learnStats) (*result, error) {
	f, err := newFront(e, frontName)
	if err != nil {
		return nil, err
	}
	sr, err := runServe(e, f, serveOpts{
		kind: kind, seed: e.seed, conns: e.conns(), coldStarts: coldStartCount,
		warm: e.warmup(), single: e.seconds / 2, batch: e.seconds / 2,
	}, nil)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"setup_s":      sr.setupS(),
		"learn_cpu_s":  ls.learnS,
		"peak_rss_mb":  float64(sr.rss) / (1 << 20),
		"hint_ppv":     sr.score.ppv(),
		"hint_tp_frac": sr.score.tpFrac(),
	}
	servingMetrics(e, m, sr)
	return newResult(ls.attempted+sr.attempted(), ls.failed+sr.failed(), m, e.bench.EndToEnd)
}

// servingMetrics adds the lookup cost metrics of a daemon's run and
// reports its phases, with the wall-clock rates and latencies beside
// the figures the metrics take.
func servingMetrics(e *env, m map[string]float64, sr *serveResult) {
	m["lookup_cpu_ratio"] = sr.single.cpuRatio
	m["batch_lookup_cpu_ratio"] = sr.batch.cpuRatio
	e.logf("scoring pass: %d batches, %d failed", sr.scoreOps[0], sr.scoreOps[1])
	e.logf("cold starts: %d timed, %d failed; calibration %.0f ns by block; by start: daemon cpu at reference speed %.1f ms, wall %.1f ms",
		len(sr.setup), sr.coldFailed, sr.setupCal, scaled(sr.setup, 1e3), scaled(sr.setupWall, 1e3))
	for _, p := range []*phaseResult{&sr.single, &sr.batch} {
		e.logf("phase %s: attempted %d, succeeded %d, failed %d; %d latency samples from the %d quietest of %d windows over %v; "+
			"daemon/client cpu %.3f; hostnames/s %.0f; latency %s; cpu per op: daemon %.1f us, client %.1f us; "+
			"steal %.3f; daemon/client cpu by window %.3f; hostnames/s by window %.0f; steal by window %.3f",
			p.name, p.attempted, p.attempted-p.failed, p.failed, len(p.lat), p.kept, windows, p.dur,
			p.cpuRatio, p.hostRate, p.latencyText(), cpuPerUS(p.daemonCPU, p.ops), cpuPerUS(p.clientCPU, p.ops),
			p.steal, p.windowRatio, p.windowRates, p.windowSteal)
		for _, err := range p.errs {
			e.logf("phase %s: connection error: %v", p.name, err)
		}
	}
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// newResult keeps exactly the metrics in defs, in their units, and
// refuses a result that lacks one or holds a value that is not finite.
func newResult(attempted, failed int64, m map[string]float64, defs []metricDef) (*result, error) {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// sourceFingerprint names the code under test: the git commit when the
// checkout is a repository, else a hash of the Go sources and module
// files.
func sourceFingerprint(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	// A file that cannot be read is left out of the fingerprint.
	walkErr := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	if walkErr != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
