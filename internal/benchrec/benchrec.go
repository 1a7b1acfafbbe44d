// Package benchrec records and compares benchmark trajectories: the
// schema behind the repo's committed BENCH_NNNN.json files and the
// regression verdicts cmd/geobench computes between them.
//
// A File is one recorded run of the benchmark suite on one machine —
// env-, commit-, and date-stamped, with every benchmark measured over
// several repeat runs so a later comparison can separate real
// regressions from scheduler noise. The statistics are deliberately
// robust: the point estimate is the median across repeats and the noise
// scale is the median absolute deviation (MAD), both immune to the
// single-outlier runs that plague CI machines. Compare flags a
// candidate benchmark only when it is past the relative threshold AND
// outside the combined noise bound of both records, so a noisy pair of
// runs cannot fabricate a regression verdict.
//
// The package is stdlib-only and knows nothing about which benchmarks
// exist; cmd/geobench owns the suite and feeds testing.Benchmark
// results in through Record.
package benchrec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
)

// SchemaVersion stamps every File; readers reject files from a future
// schema instead of misinterpreting them.
const SchemaVersion = 1

// File is one recorded benchmark-suite run.
type File struct {
	Schema    int    `json:"schema"`
	CreatedAt string `json:"created_at"` // RFC3339 UTC
	Commit    string `json:"commit,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// Quick marks a reduced-benchtime run (CI smoke); trajectories
	// should compare quick against quick and full against full.
	Quick      bool        `json:"quick,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Counters are observability totals of the run, such as the span
	// aggregates of one traced pass over the corpus.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Benchmark is one suite entry: the per-repeat samples plus the robust
// statistics Compare consumes.
type Benchmark struct {
	Name string `json:"name"`
	// Samples are ns/op per repeat run, in run order.
	Samples []float64 `json:"samples_ns_per_op"`
	// NsPerOp is the median of Samples.
	NsPerOp float64 `json:"ns_per_op"`
	// MADNs is the median absolute deviation of Samples around NsPerOp.
	MADNs float64 `json:"mad_ns"`
	// AllocsPerOp and BytesPerOp come from the last repeat (allocation
	// counts are deterministic per iteration, unlike wall time).
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Metrics carries testing.B.ReportMetric extras (workers, hostnames,
	// p99_us, ...). Comparison policy: extras are context, not gates —
	// Compare reports their movement as informational notes on the
	// benchmark's Delta but never turns one into a Regression verdict,
	// because extras have no per-repeat samples (only the last repeat's
	// value survives) and so no noise model to gate against.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// NewFile returns an env-stamped empty record. createdAt is RFC3339;
// the caller stamps it (and the commit) so this package stays clock-free.
func NewFile(createdAt, commit string, quick bool) *File {
	return &File{
		Schema:    SchemaVersion,
		CreatedAt: createdAt,
		Commit:    commit,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Quick:     quick,
	}
}

// Record folds repeat runs of one benchmark into the file. results must
// be non-empty and ordered as run.
func (f *File) Record(name string, results []testing.BenchmarkResult) {
	samples := make([]float64, len(results))
	for i, r := range results {
		n := r.N
		if n <= 0 {
			n = 1
		}
		samples[i] = float64(r.T.Nanoseconds()) / float64(n)
	}
	med := Median(samples)
	b := Benchmark{
		Name:    name,
		Samples: samples,
		NsPerOp: med,
		MADNs:   MAD(samples, med),
	}
	if len(results) > 0 {
		last := results[len(results)-1]
		b.AllocsPerOp = int64(last.AllocsPerOp())
		b.BytesPerOp = int64(last.AllocedBytesPerOp())
		if len(last.Extra) > 0 {
			b.Metrics = make(map[string]float64, len(last.Extra))
			for k, v := range last.Extra {
				b.Metrics[k] = v
			}
		}
	}
	f.Benchmarks = append(f.Benchmarks, b)
}

// Median returns the median of xs (0 for an empty slice). xs is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// MAD returns the median absolute deviation of xs around med.
func MAD(xs []float64, med float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return Median(devs)
}

// Write serializes the file as indented JSON. Benchmarks are sorted by
// name first so a committed record diffs cleanly between PRs.
func (f *File) Write(w io.Writer) error {
	sort.Slice(f.Benchmarks, func(i, j int) bool {
		return f.Benchmarks[i].Name < f.Benchmarks[j].Name
	})
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("benchrec: marshal: %w", err)
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return err
	}
	return nil
}

// WriteFile writes the record to path via Write.
func (f *File) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Read parses and validates one record.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("benchrec: parse: %w", err)
	}
	if f.Schema <= 0 || f.Schema > SchemaVersion {
		return nil, fmt.Errorf("benchrec: unsupported schema %d (this build reads <= %d)", f.Schema, SchemaVersion)
	}
	return &f, nil
}

// ReadFile reads a record from path via Read.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	f, err := Read(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
