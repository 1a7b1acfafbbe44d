package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"hoiho/internal/core"
)

func TestStreamsDeterministic(t *testing.T) {
	for _, kind := range []string{streamZipf, streamUniform} {
		a, b := newStream(kind, 5000, 7, 1), newStream(kind, 5000, 7, 1)
		other := newStream(kind, 5000, 7, 2)
		same := true
		for i := 0; i < 2000; i++ {
			x, y, z := a.next(), b.next(), other.next()
			if x != y {
				t.Fatalf("%s: draw %d differs between two streams of one seed: %d vs %d", kind, i, x, y)
			}
			same = same && x == z
		}
		if same {
			t.Errorf("%s: connections 1 and 2 drew the same hostnames", kind)
		}
		if equalPrefix(newStream(kind, 5000, 7, 1), newStream(kind, 5000, 8, 1), 50) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", kind)
		}
	}
}

func equalPrefix(a, b *stream, n int) bool {
	for i := 0; i < n; i++ {
		if a.next() != b.next() {
			return false
		}
	}
	return true
}

// fullWorld is the benchmark's world for seed 1, learned in-process:
// the hostnames and snapshot the cache-fraction test needs.
var fullWorld = sync.OnceValues(func() (*env, error) {
	e := &env{seed: 1, scale: worldScale}
	w, err := newWorld(e.seed, e.scale)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(w.Inputs(), core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var nc bytes.Buffer
	if err := core.WriteConventions(&nc, res); err != nil {
		return nil, err
	}
	if _, e.snap, err = compileSnapshot(nc.Bytes()); err != nil {
		return nil, err
	}
	e.world, e.hosts = w, hostnames(w)
	return e, nil
})

// TestStreamCacheFractions checks the property each serving workload
// was chosen for, against a fresh index with the daemons' default
// cache: the Zipf stream mostly hits, the uniform stream mostly misses.
func TestStreamCacheFractions(t *testing.T) {
	if testing.Short() {
		t.Skip("learns a full-size world")
	}
	e, err := fullWorld()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind     string
		min, max float64
	}{
		{streamZipf, 0.8, 1},
		{streamUniform, 0, 0.3},
	} {
		hit, _, err := cacheFractions(e.snap, e.hosts, streamPrefix(tc.kind, len(e.hosts), e.seed, 40000))
		if err != nil {
			t.Fatal(err)
		}
		if hit < tc.min || hit > tc.max {
			t.Errorf("%s stream: cache hit fraction %.3f, want within [%v, %v]", tc.kind, hit, tc.min, tc.max)
		}
		t.Logf("%s stream over %d hostnames: cache hit fraction %.3f", tc.kind, len(e.hosts), hit)
	}
}

// smokeEnv builds the daemons once and returns a small, short run
// environment: a world at the preset's own size and one-second runs.
func smokeEnv(t *testing.T, seed int64) *env {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := loadBench(root)
	if err != nil {
		t.Fatal(err)
	}
	binDir, err := smokeBins(root)
	if err != nil {
		t.Fatal(err)
	}
	return &env{
		root: root, work: t.TempDir(), binDir: binDir, scale: 1, seed: seed,
		seconds: time.Second, nproc: runtime.NumCPU(), bench: bench, log: io.Discard,
	}
}

var (
	smokeOnce sync.Once
	smokeDir  string
	smokeErr  error
)

func smokeBins(root string) (string, error) {
	smokeOnce.Do(func() {
		if smokeDir, smokeErr = os.MkdirTemp("", "perfbench-bin"); smokeErr == nil {
			smokeErr = build(root, smokeDir)
		}
	})
	return smokeDir, smokeErr
}

func TestMain(m *testing.M) {
	// The workloads start hoiho through the running binary, this test
	// binary too, as a launcher.
	if os.Getenv(launchEnv) == "1" {
		os.Exit(launch(os.Args[1:]))
	}
	code := m.Run()
	if smokeDir != "" {
		os.RemoveAll(smokeDir)
	}
	os.Exit(code)
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	for _, name := range []string{"http-zipf", "dns-uniform", "learn"} {
		t.Run(name, func(t *testing.T) {
			e := smokeEnv(t, 3)
			res, err := workloads[name].run(e)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d, want every operation right", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range e.bench.EndToEnd {
				if m := res.Metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("metric %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
		})
	}
}

// TestWrongAnswerFails corrupts the reference answer of the 51st most
// requested hostname, which about one batch in five carries: every
// answer the daemons give for it must then count as a failed operation.
func TestWrongAnswerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	for _, tc := range []struct{ workload, kind, front string }{
		{"http-zipf", streamZipf, "http"},
		{"dns-uniform", streamZipf, "dns"},
	} {
		t.Run(tc.front, func(t *testing.T) {
			e := smokeEnv(t, 3)
			run, err := prepare(e)
			if err != nil {
				t.Fatal(err)
			}
			hot := newStream(streamZipf, len(e.hosts), e.seed, 0).perm[50]
			a := &e.ref[hot]
			a.located, a.city, a.txt = true, "atlantis", []string{"city=atlantis"}
			res, err := serveWorkload(e, tc.kind, tc.front, learnStats{learnS: atRefSpeed(run.cpu, run.cal), attempted: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("correct=%v failed=%d after corrupting the answer for %s; want failures",
					res.Correct, res.Failed, e.hosts[hot])
			}
		})
	}
}

// TestHoihoPeakRSSIsItsOwn: hoiho's peak resident set must be its own,
// not the benchmark's, however much memory the benchmark holds when it
// starts hoiho.
func TestHoihoPeakRSSIsItsOwn(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs hoiho")
	}
	e := smokeEnv(t, 3)
	if _, err := prepare(e); err != nil {
		t.Fatal(err)
	}
	const held = 96 << 20
	ballast := make([]byte, held)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	r, err := runHoiho(e, 1)
	runtime.KeepAlive(ballast)
	if err != nil {
		t.Fatal(err)
	}
	if r.rss <= 0 || r.rss >= held {
		t.Errorf("hoiho's peak RSS %d MB with the benchmark holding %d MB; want its own, smaller peak", r.rss>>20, held>>20)
	}
	t.Logf("hoiho at scale 1: peak RSS %.1f MB, wall %.2f s", float64(r.rss)/(1<<20), r.wall)
}
