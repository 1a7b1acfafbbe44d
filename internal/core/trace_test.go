// Tracing integration tests for the pipeline; like the parallel tests,
// they need synth and so live in core_test.
package core_test

import (
	"bytes"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/obs"
)

// TestTracedRunParallel runs the traced pipeline on the worker pool and
// checks the span tree is complete and worker-attributed. Run with
// -race this is the tentpole's concurrency proof: many workers ending
// spans into one tracer.
func TestTracedRunParallel(t *testing.T) {
	w := testWorld(t)
	cfg := core.DefaultConfig()
	cfg.Workers = 8
	cfg.Tracer = obs.New(obs.Options{})
	if _, err := core.Run(w.Inputs(), cfg); err != nil {
		t.Fatal(err)
	}

	recs := cfg.Tracer.Export()
	if len(recs) == 0 {
		t.Fatal("traced run exported no spans")
	}
	groups, runs := 0, 0
	for _, r := range recs {
		switch r.Name {
		case "run":
			runs++
			if r.Counters["suffix_groups"] == 0 {
				t.Errorf("run span has no suffix_groups counter: %+v", r)
			}
			if r.Counters["matchers_compiled"] == 0 {
				t.Errorf("run span counted no compiled matchers: %+v", r)
			}
		case "group":
			groups++
			if r.Key == "" {
				t.Errorf("group span without suffix key: %+v", r)
			}
			if r.Worker < 1 || r.Worker > 8 {
				t.Errorf("group span worker %d outside pool 1..8", r.Worker)
			}
			if r.Parent == 0 {
				t.Errorf("group span %q detached from run span", r.Key)
			}
		}
	}
	if runs != 1 {
		t.Fatalf("exported %d run spans, want 1", runs)
	}
	if g := int(findRun(t, recs).Counters["suffix_groups"]); groups != g {
		t.Fatalf("exported %d group spans, run counted %d groups", groups, g)
	}

	var buf bytes.Buffer
	if err := cfg.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty JSONL export")
	}
}

func findRun(t *testing.T, recs []obs.TraceRecord) obs.TraceRecord {
	t.Helper()
	for _, r := range recs {
		if r.Name == "run" {
			return r
		}
	}
	t.Fatal("no run span")
	return obs.TraceRecord{}
}

// TestTracedCountersWorkerInvariant checks that the aggregated stage
// counters — hostnames seen, tagged, RTT checks, evaluations — do not
// depend on the worker count: the same work happens no matter how it is
// scheduled.
func TestTracedCountersWorkerInvariant(t *testing.T) {
	w := testWorld(t)
	counters := func(workers int) map[string]int64 {
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		cfg.Tracer = obs.New(obs.Options{})
		if _, err := core.Run(w.Inputs(), cfg); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int64)
		for _, row := range cfg.Tracer.Summary().Stages {
			if row.Name != "stage2" && row.Name != "learn" {
				continue
			}
			for k, v := range row.Counters {
				out[row.Name+"/"+k] = v
			}
		}
		return out
	}

	seq := counters(1)
	if seq["stage2/hostnames"] == 0 || seq["learn/evaluations"] == 0 {
		t.Fatalf("sequential run recorded implausible counters: %v", seq)
	}
	par := counters(8)
	if len(par) != len(seq) {
		t.Fatalf("parallel counters %v, sequential %v", par, seq)
	}
	for k, v := range seq {
		if par[k] != v {
			t.Errorf("counter %s: workers=8 got %d, workers=1 got %d", k, par[k], v)
		}
	}
}
