package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/eval"
	"hoiho/internal/geoloc"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
	"hoiho/internal/rtt"
)

// minLearnRuns is the fewest hoiho runs learn_cpu_s is the median of.
const minLearnRuns = 3

// runLearn is the end-to-end run of the learn workload: the paper's
// pipeline as a user runs it. hoiho learns from the corpus on disk,
// repeatedly for half the measurement; its output must be
// byte-identical every time and to in-process core.Run plus
// core.WriteConventions. The learned conventions are then applied at
// measurement scale: geoserve serves them to uniformly drawn
// hostnames, singly and in batches, for a quarter of the measurement
// each. Corpus reads for setup_s are timed in three blocks: after the
// first hoiho run, after the last, and after the apply phases.
func runLearn(e *env) (*result, error) {
	t0 := time.Now()
	first, err := prepare(e)
	if err != nil {
		return nil, err
	}
	conventions := first.out
	var reads corpusReads
	if err := reads.add(e, corpusReadsPerBlock); err != nil {
		return nil, err
	}

	ls, err := learnSeries(e, first, t0.Add(e.seconds/2))
	if err != nil {
		return nil, err
	}
	if err := reads.add(e, corpusReadsPerBlock); err != nil {
		return nil, err
	}
	attempted, failed := ls.attempted, ls.failed

	attempted++
	if ok, err := matchesInProcess(e, conventions); err != nil {
		return nil, err
	} else if !ok {
		failed++
		e.logf("hoiho's conventions differ from in-process core.Run + core.WriteConventions")
	}

	learned, err := core.ReadConventions(bytes.NewReader(conventions))
	if err != nil {
		return nil, err
	}
	fig := eval.ComputeFig9Hoiho(e.world, learned)

	f, err := newFront(e, "http")
	if err != nil {
		return nil, err
	}
	sr, err := runServe(e, f, serveOpts{
		kind: streamUniform, seed: e.seed, conns: e.conns(),
		warm: e.warmup(), single: e.seconds / 4, batch: e.seconds / 4,
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := reads.add(e, corpusReadsPerBlock); err != nil {
		return nil, err
	}
	e.logf("corpus reads: cpu at reference speed %.4f s, wall %.4f s, steal %.3f", reads.secs, reads.wall, reads.steal)
	m := map[string]float64{
		"setup_s":      quietMedian(reads.secs, reads.steal),
		"learn_cpu_s":  ls.learnS,
		"peak_rss_mb":  ls.peakRSS / (1 << 20),
		"hint_ppv":     fig.PPV(),
		"hint_tp_frac": ratio(fig.TP, fig.Total()),
	}
	servingMetrics(e, m, sr)
	return newResult(attempted+sr.attempted(), failed+sr.failed(), m, e.bench.EndToEnd)
}

// corpusReadsPerBlock is how many geoloc.LoadInputs reads of the
// corpus each of the learn workload's three blocks times for setup_s,
// the median of the quieter half of them by steal.
const corpusReadsPerBlock = 3

// corpusReads are timed geoloc.LoadInputs reads of a run's corpus.
type corpusReads struct {
	secs  []float64 // CPU seconds of each read, at the reference speed
	wall  []float64 // wall seconds of each read
	steal []float64 // steal fraction during each read
}

// add times n reads, each after a runtime.GC() so that every read
// starts from the same heap. Nothing runs in this process meanwhile
// but the read and the calibration, so its CPU time less the
// calibration's is the read's.
func (r *corpusReads) add(e *env, n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		st0, c0, t0 := readCPUStat(), selfCPU(), time.Now()
		cal, calCPU, err := calibrated(func() error {
			_, err := geoloc.LoadInputs(e.corpusDir)
			return err
		})
		if err != nil {
			return err
		}
		r.wall = append(r.wall, time.Since(t0).Seconds())
		r.secs = append(r.secs, atRefSpeed((selfCPU()-c0-calCPU).Seconds(), cal))
		r.steal = append(r.steal, readCPUStat().sub(st0).frac())
	}
	return nil
}

// learnStats summarizes a workload's hoiho runs.
type learnStats struct {
	learnS            float64 // median CPU time at the reference speed
	peakRSS           float64 // median peak RSS, bytes
	attempted, failed int64
}

// learnSeries runs hoiho again after prepare's first run until it has
// run minLearnRuns times and the clock has passed until. Every run must
// write the conventions the first wrote. learn_cpu_s is the median of
// hoiho's CPU time at the reference speed (atRefSpeed) over the runs.
func learnSeries(e *env, first hoihoRun, until time.Time) (learnStats, error) {
	st := learnStats{attempted: 1}
	runs := []hoihoRun{first}
	for i := 1; i < minLearnRuns || time.Now().Before(until); i++ {
		r, err := runHoiho(e, i)
		if err != nil {
			return st, err
		}
		st.attempted++
		if !bytes.Equal(r.out, first.out) {
			st.failed++
			e.logf("hoiho run %d wrote different conventions than run 0", i)
		}
		runs = append(runs, r)
	}
	var walls, cpus, refs, cals, peaks, steal []float64
	for _, r := range runs {
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
		refs = append(refs, atRefSpeed(r.cpu, r.cal))
		cals = append(cals, r.cal)
		peaks = append(peaks, float64(r.rss))
		steal = append(steal, r.steal)
	}
	e.logf("learning: %d hoiho runs, %d differing; by run: cpu at reference speed %.3f s, cpu %.3f s, calibration %.0f ns, wall %.3f s, steal %.3f",
		len(runs), st.failed, refs, cpus, cals, walls, steal)
	st.learnS, st.peakRSS = median(refs), median(peaks)
	return st, nil
}

// learnConfig is the pipeline configuration hoiho -corpus runs with.
func learnConfig(dir string) core.Config {
	return (&geoloc.Source{Corpus: dir}).CoreConfig(nil)
}

// matchesInProcess reports whether conventions equal what core.Run and
// core.WriteConventions produce in-process from the same corpus files.
func matchesInProcess(e *env, conventions []byte) (bool, error) {
	in, err := geoloc.LoadInputs(e.corpusDir)
	if err != nil {
		return false, err
	}
	res, err := core.Run(in, learnConfig(e.corpusDir))
	if err != nil {
		return false, err
	}
	var buf bytes.Buffer
	if err := core.WriteConventions(&buf, res); err != nil {
		return false, err
	}
	return bytes.Equal(buf.Bytes(), conventions), nil
}

// readCorpus reads the corpus files the way geoloc.LoadInputs does.
func readCorpus(dir string) (*itdk.Corpus, error) {
	var rs []io.Reader
	for _, name := range []string{"corpus.nodes", "corpus.names", "corpus.geo"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		rs = append(rs, bytes.NewReader(b))
	}
	return itdk.ReadCorpus(io.MultiReader(rs...), filepath.Base(dir), false)
}

// probeLearning measures the learning layers on the run's corpus.
func probeLearning(m map[string]float64, dir string) error {
	var err error
	if m["itdk.read_ms"], err = medianMS(3, func() error { _, err := readCorpus(dir); return err }); err != nil {
		return err
	}
	corpus, err := readCorpus(dir)
	if err != nil {
		return err
	}
	list, err := psl.Default()
	if err != nil {
		return err
	}
	var groups []*itdk.SuffixGroup
	if m["itdk.group_ms"], err = medianMS(3, func() error { groups = corpus.GroupBySuffix(list); return nil }); err != nil {
		return err
	}
	matrix, err := os.ReadFile(filepath.Join(dir, "rtt.matrix"))
	if err != nil {
		return err
	}
	if m["rtt.read_ms"], err = medianMS(3, func() error { _, err := rtt.ReadMatrix(bytes.NewReader(matrix)); return err }); err != nil {
		return err
	}

	in, err := geoloc.LoadInputs(dir)
	if err != nil {
		return err
	}
	cfg := learnConfig(dir)
	var res *core.Result
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if m["core.run_ms"], err = medianMS(1, func() error { res, err = core.Run(in, cfg); return err }); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	m["core.run_allocs"] = float64(m1.Mallocs - m0.Mallocs)
	seq := cfg
	seq.Workers = 1
	if m["core.run_seq_ms"], err = medianMS(1, func() error { _, err := core.Run(in, seq); return err }); err != nil {
		return err
	}
	m["core.speedup"] = m["core.run_seq_ms"] / m["core.run_ms"]

	largest := groups[0]
	for _, g := range groups {
		if len(g.Hosts) > len(largest.Hosts) {
			largest = g
		}
	}
	if m["core.stage2_ms"], err = medianMS(3, func() error { _, err := core.TagSuffix(in, cfg, largest.Suffix); return err }); err != nil {
		return err
	}
	runSuffix, err := medianMS(3, func() error { _, _, err := core.RunSuffix(in, cfg, largest.Suffix); return err })
	if err != nil {
		return err
	}
	// RunSuffix groups the whole corpus before learning the one group.
	m["core.largest_group_ms"] = runSuffix - m["itdk.group_ms"]
	if m["core.write_nc_ms"], err = medianMS(3, func() error { return core.WriteConventions(io.Discard, res) }); err != nil {
		return err
	}
	m["core.conventions"] = float64(len(res.NCs))
	m["core.usable_conventions"] = float64(len(res.UsableNCs()))
	if len(res.NCs) == 0 {
		return fmt.Errorf("learning found no conventions")
	}
	return nil
}
