// Package hoiho_bench holds the repo's end-to-end tests and runs its
// two benchmark tables:
//
//	BenchmarkExperiments/<name>  every entry of eval.Experiments: the
//	                             paper's tables, figures and ablations
//	                             over the four preset worlds, each
//	                             printed once as `geoeval -experiment
//	                             <name>` prints it, then timed
//	BenchmarkSuite/<name>        every entry of benchsuite.Table over
//	                             testdata/golden: the suite geobench
//	                             records into BENCH_NNNN.json
//
// (see DESIGN.md §3 and §8). The benchmarks below them time workloads
// no table defines.
package hoiho_bench

import (
	"fmt"
	"sync"
	"testing"

	"hoiho/internal/benchsuite"
	"hoiho/internal/core"
	"hoiho/internal/eval"
	"hoiho/internal/obs"
	"hoiho/internal/synth"
)

var (
	evalOnce  sync.Once
	evalSuite *eval.Suite
	evalErr   error

	benchOnce  sync.Once
	benchSuite *benchsuite.Suite
	benchErr   error
)

// loadEval learns the four preset worlds at full scale, once.
func loadEval(b *testing.B) *eval.Suite {
	b.Helper()
	evalOnce.Do(func() {
		evalSuite, evalErr = eval.Run(eval.PresetNames, 1.0, core.DefaultConfig())
	})
	if evalErr != nil {
		b.Fatal(evalErr)
	}
	return evalSuite
}

// loadBench loads the golden corpus for the benchmark table, once.
func loadBench(b *testing.B) *benchsuite.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite, benchErr = benchsuite.New(benchsuite.DefaultCorpus)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

func BenchmarkExperiments(b *testing.B) {
	for _, e := range eval.Experiments {
		printed := false
		b.Run(e.Name, func(b *testing.B) {
			s := loadEval(b)
			if !printed {
				rows, err := e.Rows(s)
				if err != nil {
					b.Fatal(err)
				}
				fmt.Printf("\n== %s ==\n%s", e.Header, rows)
				printed = true
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Rows(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSuite(b *testing.B) {
	s := loadBench(b)
	for _, e := range benchsuite.Table {
		b.Run(e.Name, func(b *testing.B) { e.Run(s, b) })
	}
}

// BenchmarkRunParallelTraced is BenchmarkSuite/CoreRunParallel with a
// live tracer, over the same inputs and worker count. The delta between
// the two is the enabled-tracing cost; the disabled-tracing cost is
// zero by construction (nil-receiver no-ops, proven by
// obs.TestNilTracerZeroAlloc).
func BenchmarkRunParallelTraced(b *testing.B) {
	in := loadBench(b).Inputs()
	cfg := benchsuite.ParallelConfig()
	// ResetTimer also clears reported metrics, so it comes first.
	b.ResetTimer()
	b.ReportMetric(float64(cfg.Workers), "workers")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Tracer = obs.New(obs.Options{})
		if _, err := core.Run(in, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorldGeneration(b *testing.B) {
	p, err := synth.ITDKPreset("ipv4-aug2020")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeolocateHostname(b *testing.B) {
	s := loadEval(b)
	w, res := s.Worlds[0], s.Results[0]
	// Pick a usable NC and one of its hostnames.
	var host string
	var nc *core.NamingConvention
	for h, suffix := range w.HintHostnames {
		if c := res.NCs[suffix]; c != nil && c.Class.Usable() {
			if _, ok := core.Geolocate(c, w.Dict, h); ok {
				host, nc = h, c
				break
			}
		}
	}
	if nc == nil {
		b.Fatal("no usable NC found")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := core.Geolocate(nc, w.Dict, host); !ok {
			b.Fatal("geolocate failed")
		}
	}
}
