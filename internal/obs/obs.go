// Package obs is the pipeline's observability layer: a stdlib-only
// tracer that records hierarchical spans (run → stage → suffix group →
// step) with wall time, worker id, and named counters, and exports them
// as deterministic JSONL traces plus an aggregated per-stage/per-key
// summary table.
//
// The layer is built around two contracts the rest of the stack relies
// on:
//
//   - Zero cost when disabled. Every method is safe to call on a nil
//     *Tracer or nil *Span and returns immediately without allocating;
//     instrumented code needs no "is tracing on?" branches. The hot
//     paths of core.Run therefore run at full speed with a nil tracer
//     (proved by TestNilTracerZeroAlloc and by comparing
//     BenchmarkSuite/CoreRunParallel with BenchmarkRunParallelTraced).
//
//   - Deterministic export. Finished spans are canonically ordered
//     (by path, key, then start sequence), ids are renumbered in output
//     order, and counters serialize with sorted keys — so two runs of
//     the same seeded corpus with the same worker count and a frozen
//     clock produce byte-identical traces. TestGoldenTraceDeterministic
//     locks this down.
//
// A Tracer is safe for concurrent use: spans may start and end on any
// goroutine (each span itself belongs to one goroutine, matching the
// worker-pool shape of the pipeline). It keeps every finished span in
// one store, which Export and Summary both read; the tracers in use
// record a few spans per suffix group, not one per request.
package obs

import (
	"sync"
	"time"
)

// Options configures a Tracer.
type Options struct {
	// Clock reports elapsed time since an arbitrary fixed origin. nil
	// uses a monotonic clock anchored at New. FrozenClock pins every
	// timestamp to zero, which makes exported traces byte-identical
	// across runs (the golden-test configuration).
	Clock func() time.Duration
}

// FrozenClock is a Clock that always reports zero elapsed time,
// removing wall-clock nondeterminism from exported traces.
func FrozenClock() time.Duration { return 0 }

// Tracer records spans. The zero value is not usable; construct with
// New. A nil *Tracer is valid everywhere and records nothing.
type Tracer struct {
	clock func() time.Duration

	mu       sync.Mutex
	seq      uint64
	finished []spanRecord

	// Runtime-telemetry ring (see runtime.go). Guarded by its own mutex
	// so a sampler tick never contends with span recording.
	rtMu    sync.Mutex
	rtRing  []RuntimeSample
	rtNext  int
	rtCount int
}

// New returns a Tracer ready to record.
func New(opts Options) *Tracer {
	clock := opts.Clock
	if clock == nil {
		start := time.Now()
		clock = func() time.Duration { return time.Since(start) }
	}
	return &Tracer{clock: clock}
}

// Span is one timed unit of work. A span belongs to the goroutine that
// started it until End; Child spans may be handed to other goroutines.
// All methods are no-ops on a nil *Span.
type Span struct {
	tr     *Tracer
	parent *Span
	name   string
	path   string // slash-joined name chain, for canonical ordering
	key    string // suffix / route / world the span is about
	worker int    // worker pool slot (0 = unattributed)
	seq    uint64
	start  time.Duration
	counts []counterKV // small, append-only; most spans carry <8 counters
}

type counterKV struct {
	name string
	n    int64
}

// Start begins a root span. Returns nil (safely inert) on a nil Tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(nil, name)
}

// Child begins a sub-span of s. Returns nil on a nil *Span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(s, name)
}

func (t *Tracer) newSpan(parent *Span, name string) *Span {
	path := name
	if parent != nil {
		path = parent.path + "/" + name
	}
	t.mu.Lock()
	t.seq++
	seq := t.seq
	t.mu.Unlock()
	return &Span{
		tr:     t,
		parent: parent,
		name:   name,
		path:   path,
		seq:    seq,
		start:  t.clock(),
	}
}

// SetKey labels the span with the entity it is about — a suffix, an
// HTTP route, a world name. Keys drive the per-key summary table.
func (s *Span) SetKey(key string) {
	if s == nil {
		return
	}
	s.key = key
}

// SetWorker records which worker-pool slot ran the span (1-based; zero
// means unattributed and is omitted from the trace).
func (s *Span) SetWorker(w int) {
	if s == nil {
		return
	}
	s.worker = w
}

// Count adds n to the span's named counter.
func (s *Span) Count(name string, n int64) {
	if s == nil {
		return
	}
	for i := range s.counts {
		if s.counts[i].name == name {
			s.counts[i].n += n
			return
		}
	}
	s.counts = append(s.counts, counterKV{name, n})
}

// End finishes the span, adding it to the tracer's finished spans. End
// must be called exactly once per span; calling it on a nil *Span is a
// no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.tr.clock()
	rec := spanRecord{
		name:    s.name,
		path:    s.path,
		key:     s.key,
		worker:  s.worker,
		seq:     s.seq,
		startNS: int64(s.start),
		durNS:   int64(end - s.start),
		counts:  s.counts,
	}
	if s.parent != nil {
		rec.parentSeq = s.parent.seq
	}
	s.tr.record(rec)
}

// spanRecord is a finished span, pre-serialization.
type spanRecord struct {
	name      string
	path      string
	key       string
	worker    int
	seq       uint64
	parentSeq uint64
	startNS   int64
	durNS     int64
	counts    []counterKV
}

func (t *Tracer) record(rec spanRecord) {
	t.mu.Lock()
	t.finished = append(t.finished, rec)
	t.mu.Unlock()
}

// SpanCount returns how many spans have finished so far.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.finished)
}
