package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// run is one benchmark invocation within a result set.
type run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Stamp    stamp  `json:"stamp"`
	Result   result `json:"result"`
}

// resultSet is what -repeat writes and -compare reads.
type resultSet struct {
	Seconds int   `json:"seconds"`
	Trace   int   `json:"trace"`
	Runs    []run `json:"runs"`
}

// runRepeat runs each listed workload n times, seeds seed..seed+n-1,
// each in a fresh process as the benchmark is run for real, then prints
// every metric's median, quartiles and spread.
func runRepeat(root, workloadList string, seed int64, seconds, trace, n int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Seconds: seconds, Trace: trace}
	for _, w := range strings.Split(workloadList, ",") {
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "-root", root, "--workload", w, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			r, err := parseRun(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			// The phase reports go to stderr, the summary to stdout.
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			for _, l := range lines[:len(lines)-2] {
				fmt.Fprintf(os.Stderr, "  %s seed %d: %s\n", w, s, l)
			}
			r.Workload, r.Seed = w, s
			set.Runs = append(set.Runs, r)
			fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v attempted=%d failed=%d\n",
				w, s, r.Result.Correct, r.Result.Attempted, r.Result.Failed)
		}
	}
	summarize(set)
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

// parseRun reads the stamp and result lines a run prints last.
func parseRun(stdout []byte) (run, error) {
	var r run
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if len(lines) < 2 {
		return r, errors.New("no result line")
	}
	st, ok := strings.CutPrefix(lines[len(lines)-2], "stamp ")
	if !ok {
		return r, errors.New("no stamp line")
	}
	if err := json.Unmarshal([]byte(st), &r.Stamp); err != nil {
		return r, err
	}
	return r, json.Unmarshal([]byte(lines[len(lines)-1]), &r.Result)
}

// byWorkloadMetric groups a set's metric values.
func byWorkloadMetric(set resultSet) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range set.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, name := range sortedKeys(r.Result.Metrics) {
			out[r.Workload][name] = append(out[r.Workload][name], r.Result.Metrics[name].Value)
		}
	}
	return out
}

func summarize(set resultSet) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	groups := byWorkloadMetric(set)
	for _, wl := range sortedKeys(groups) {
		fmt.Fprintf(w, "%s (%d runs)\n", wl, countRuns(set, wl))
		fmt.Fprintf(w, "  %-32s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
		for _, name := range sortedKeys(groups[wl]) {
			xs := groups[wl][name]
			q1, q2, q3, err := quartiles(xs)
			if err != nil {
				fmt.Fprintf(w, "  %-32s %14.6g\n", name, xs[0])
				continue
			}
			sp, _ := spread(xs)
			fmt.Fprintf(w, "  %-32s %14.6g %14.6g %14.6g %7.2f%%\n", name, q1, q2, q3, 100*sp)
		}
	}
}

func countRuns(set resultSet, workload string) int {
	n := 0
	for _, r := range set.Runs {
		if r.Workload == workload {
			n++
		}
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runCompare checks two result sets, given as "a,b", against the
// end-to-end bounds of BENCHMARK.json: within each set every metric
// must spread (interquartile distance over median) no more than its
// bound, and no metric's median in b may be worse than in a by more
// than its bound. It fails when either check does.
func runCompare(root, pair string) error {
	a, b, ok := strings.Cut(pair, ",")
	if !ok {
		return errors.New("-compare wants two files, a,b")
	}
	cfg, err := loadBench(root)
	if err != nil {
		return err
	}
	sa, err := readSet(a)
	if err != nil {
		return err
	}
	sb, err := readSet(b)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	bad := compareSets(&buf, cfg.EndToEnd, sa, sb)
	fmt.Print(buf.String())
	if bad > 0 {
		return fmt.Errorf("%d checks out of bounds", bad)
	}
	return nil
}

func readSet(path string) (resultSet, error) {
	var s resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareSets writes one row per workload and metric and returns how
// many checks failed.
func compareSets(w *bytes.Buffer, defs []metricDef, a, b resultSet) int {
	ga, gb := byWorkloadMetric(a), byWorkloadMetric(b)
	bad := 0
	fmt.Fprintf(w, "%-12s %-22s %7s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "bound", "median a", "median b", "worse", "spread a", "spread b", "verdict")
	for _, wl := range sortedKeys(ga) {
		if gb[wl] == nil {
			continue
		}
		for _, d := range defs {
			xa, xb := ga[wl][d.Name], gb[wl][d.Name]
			if len(xa) < 2 || len(xb) < 2 {
				continue
			}
			ma, mb := median(append([]float64(nil), xa...)), median(append([]float64(nil), xb...))
			worse := (mb - ma) / math.Abs(ma)
			if d.Better == "higher" {
				worse = -worse
			}
			spa, _ := spread(xa)
			spb, _ := spread(xb)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "WORSE"
			case spa > d.Bound || spb > d.Bound:
				verdict = "NOISY"
			case spa > d.Bound/3 || spb > d.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			if verdict == "WORSE" || verdict == "NOISY" {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-22s %7.3f %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%%  %s\n",
				wl, d.Name, d.Bound, ma, mb, 100*worse, 100*spa, 100*spb, verdict)
		}
	}
	return bad
}
