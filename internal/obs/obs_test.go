package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestNilTracerSafe exercises every method on nil receivers; any panic
// fails the test.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("run")
	if sp != nil {
		t.Fatalf("nil tracer Start returned non-nil span")
	}
	child := sp.Child("stage")
	if child != nil {
		t.Fatalf("nil span Child returned non-nil span")
	}
	sp.SetKey("example.net")
	sp.SetWorker(3)
	sp.Count("hostnames", 10)
	sp.End()
	if got := tr.SpanCount(); got != 0 {
		t.Fatalf("nil tracer SpanCount = %d, want 0", got)
	}
	if recs := tr.Export(); recs != nil {
		t.Fatalf("nil tracer Export = %v, want nil", recs)
	}
	if s := tr.Summary(); len(s.Stages) != 0 || len(s.Keys) != 0 {
		t.Fatalf("nil tracer Summary = %+v, want empty", s)
	}
}

// TestNilTracerZeroAlloc proves the disabled-tracing contract: the full
// instrumentation call pattern used by the pipeline allocates nothing
// when the tracer is nil.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("run")
		g := sp.Child("group")
		g.SetKey("example.net")
		g.SetWorker(1)
		g.Count("hostnames", 64)
		g.Count("rtt_checks", 128)
		g.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer instrumentation allocates %.1f/op, want 0", allocs)
	}
}

func recordFixture(tr *Tracer) {
	run := tr.Start("run")
	run.Count("suffix_groups", 2)
	for _, suffix := range []string{"b.example.net", "a.example.net"} {
		g := run.Child("group")
		g.SetKey(suffix)
		g.SetWorker(1)
		g.Count("hostnames", 10)
		g.Count("rtt_checks", 25)
		step := g.Child("stage2")
		step.Count("hostnames_tagged", 7)
		step.End()
		g.End()
	}
	run.End()
}

// TestExportDeterministic records the same span tree twice on separate
// tracers — once in reversed start order — and requires byte-identical
// JSONL, the golden-trace contract.
func TestExportDeterministic(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		tr := New(Options{Clock: FrozenClock})
		recordFixture(tr)
		if err := tr.WriteJSONL(&bufs[i]); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("traces differ:\n--- a ---\n%s\n--- b ---\n%s", bufs[0].String(), bufs[1].String())
	}
	if bufs[0].Len() == 0 {
		t.Fatal("empty trace export")
	}
}

// TestExportCanonicalOrder checks the sort (path, key, seq), the id
// renumbering, and parent-id remapping.
func TestExportCanonicalOrder(t *testing.T) {
	tr := New(Options{Clock: FrozenClock})
	recordFixture(tr)
	recs := tr.Export()
	if len(recs) != 5 {
		t.Fatalf("exported %d spans, want 5", len(recs))
	}
	for i, r := range recs {
		if r.ID != i+1 {
			t.Fatalf("record %d has id %d, want %d", i, r.ID, i+1)
		}
	}
	// Canonical order: run, then groups sorted by key (a before b even
	// though b started first), each group's children after all groups
	// (path "run/group" < "run/group/stage2").
	wantNames := []string{"run", "group", "group", "stage2", "stage2"}
	wantKeys := []string{"", "a.example.net", "b.example.net", "", ""}
	for i, r := range recs {
		if r.Name != wantNames[i] || r.Key != wantKeys[i] {
			t.Fatalf("record %d = (%s,%q), want (%s,%q)", i, r.Name, r.Key, wantNames[i], wantKeys[i])
		}
	}
	// Parent links must point at the renumbered ids.
	if recs[1].Parent != recs[0].ID || recs[2].Parent != recs[0].ID {
		t.Fatalf("group parents = %d,%d, want %d", recs[1].Parent, recs[2].Parent, recs[0].ID)
	}
	if recs[3].Parent == 0 || recs[4].Parent == 0 {
		t.Fatalf("stage2 spans lost their parents: %d, %d", recs[3].Parent, recs[4].Parent)
	}
	// The a-group sorts first, so the first stage2's parent is the a-group.
	if recs[3].Parent != recs[1].ID && recs[3].Parent != recs[2].ID {
		t.Fatalf("stage2 parent %d is not a group id", recs[3].Parent)
	}
}

func TestSummaryAggregation(t *testing.T) {
	tr := New(Options{Clock: FrozenClock})
	recordFixture(tr)
	if tr.SpanCount() != 5 {
		t.Fatalf("SpanCount = %d, want 5", tr.SpanCount())
	}
	s := tr.Summary()
	byName := map[string]SummaryRow{}
	for _, r := range s.Stages {
		byName[r.Name] = r
	}
	g, ok := byName["group"]
	if !ok {
		t.Fatalf("no group row in %+v", s.Stages)
	}
	if g.Count != 2 || g.Counters["hostnames"] != 20 || g.Counters["rtt_checks"] != 50 {
		t.Fatalf("group row = %+v, want count=2 hostnames=20 rtt_checks=50", g)
	}
	if byName["stage2"].Counters["hostnames_tagged"] != 14 {
		t.Fatalf("stage2 row = %+v, want hostnames_tagged=14", byName["stage2"])
	}
	byKey := map[string]SummaryRow{}
	for _, r := range s.Keys {
		byKey[r.Name] = r
	}
	if byKey["a.example.net"].Counters["hostnames"] != 10 {
		t.Fatalf("per-key row = %+v, want hostnames=10", byKey["a.example.net"])
	}
}

func TestSummaryFormat(t *testing.T) {
	tr := New(Options{Clock: FrozenClock})
	recordFixture(tr)
	var buf strings.Builder
	if err := tr.Summary().Format(&buf); err != nil {
		t.Fatalf("Format: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"stage", "group", "hostnames=20", "a.example.net", "key"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary table missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentSpans hammers one tracer from many goroutines; run
// under -race this proves the tracer is safe beneath the worker pool.
func TestConcurrentSpans(t *testing.T) {
	tr := New(Options{})
	const workers, perWorker = 8, 50
	run := tr.Start("run")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g := run.Child("group")
				g.SetKey(fmt.Sprintf("suffix-%d-%d.net", w, i))
				g.SetWorker(w + 1)
				g.Count("hostnames", int64(i))
				g.End()
			}
		}(w)
	}
	wg.Wait()
	run.End()
	if got := tr.SpanCount(); got != workers*perWorker+1 {
		t.Fatalf("SpanCount = %d, want %d", got, workers*perWorker+1)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != workers*perWorker+1 {
		t.Fatalf("exported %d lines, want %d", lines, workers*perWorker+1)
	}
}
