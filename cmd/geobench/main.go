// Command geobench records the repo's performance trajectory: it runs
// the benchmark table of internal/benchsuite (pipeline runs, stage-2
// tagging, serving-index batch lookups, snapshot load, reload swap, the
// DNS front end, the lint engine) against a corpus, by default the
// committed golden one, merges the testing.Benchmark timings with the
// aggregate counters of one traced pass, and writes a schema-versioned,
// env/commit/date-stamped BENCH_NNNN.json — the files committed at the
// repo root.
//
// Usage:
//
//	geobench [-quick] [-o BENCH_0006.json]            record a run
//	geobench -quick -against BENCH_0005.json          run + regression gate
//	geobench -against a.json -candidate b.json        pure compare, no run
//	geobench -list                                    print the table
//
// Compare mode computes per-benchmark deltas of the repeat-run medians
// and flags a regression only when a candidate is past -threshold AND
// outside the records' combined median-absolute-deviation noise bound,
// so scheduler jitter cannot fail the gate. Exit status: 0 clean, 1
// regression detected, 2 usage or I/O error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	"hoiho/internal/benchrec"
	"hoiho/internal/benchsuite"
	"hoiho/internal/buildinfo"
)

func main() {
	testing.Init() // registers -test.* flags so testing.Benchmark works outside `go test`
	corpus := flag.String("corpus", benchsuite.DefaultCorpus, "corpus directory the suite learns from and looks up")
	out := flag.String("o", "", "write the candidate record to this file")
	against := flag.String("against", "", "baseline BENCH_*.json to compare the candidate against")
	candPath := flag.String("candidate", "", "load the candidate from this file instead of running the suite")
	quick := flag.Bool("quick", false, "reduced benchtime and repeats (the CI bench-record configuration)")
	repeats := flag.Int("repeats", 0, "repeat runs per benchmark (0 = 5, or 3 with -quick)")
	threshold := flag.Float64("threshold", benchrec.DefaultThreshold,
		"relative slowdown that counts as a regression (with the noise bound)")
	runPat := flag.String("run", "", "run only benchmarks matching this regexp")
	list := flag.Bool("list", false, "list the benchmark table and exit")
	commitFlag := flag.String("commit", "", "commit id to stamp (default: git rev-parse --short HEAD, with -dirty when tracked files differ; best effort)")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "geobench")
		return
	}
	if *list {
		for _, e := range benchsuite.Table {
			fmt.Printf("%-24s %s\n", e.Name, e.Doc)
		}
		return
	}

	cand, err := candidate(*corpus, *candPath, *out, *quick, *repeats, *runPat, *commitFlag)
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
func candidate(corpus, candPath, out string, quick bool, repeats int, runPat, commitFlag string) (*benchrec.File, error) {
	if candPath != "" {
		return benchrec.ReadFile(candPath)
	}
	rec, err := runSuite(corpus, quick, repeats, runPat, commitFlag)
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
func runSuite(corpus string, quick bool, repeats int, runPat, commitFlag string) (*benchrec.File, error) {
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

	s, err := benchsuite.New(corpus)
	if err != nil {
		return nil, err
	}
	rec := benchrec.NewFile(time.Now().UTC().Format(time.RFC3339), commitID(commitFlag), quick)
	for _, e := range benchsuite.Table {
		if filter != nil && !filter.MatchString(e.Name) {
			continue
		}
		fmt.Fprintf(os.Stderr, "geobench: %s (%d x %s)\n", e.Name, repeats, benchtime)
		results := make([]testing.BenchmarkResult, repeats)
		for i := range results {
			results[i] = testing.Benchmark(func(b *testing.B) { e.Run(s, b) })
		}
		rec.Record(e.Name, results)
	}
	if len(rec.Benchmarks) == 0 {
		return nil, fmt.Errorf("-run %q selects no benchmarks", runPat)
	}
	rec.Counters = s.TracedCounters()
	return rec, nil
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
