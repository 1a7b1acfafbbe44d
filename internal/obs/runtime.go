package obs

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// RuntimeSample is one snapshot of the Go runtime's health metrics, as
// read from runtime/metrics. The quantiles cover the whole life of the
// process, because the runtime's GC-pause and scheduler-latency
// histograms are cumulative. Elapsed time comes from the sampling
// tracer's clock (so FrozenClock pins it to zero); the metric values
// themselves are inherently nondeterministic and are therefore never
// part of the deterministic span export — WriteJSONL and golden traces
// exclude them by construction.
type RuntimeSample struct {
	ElapsedUS     int64   `json:"elapsed_us"`
	HeapBytes     uint64  `json:"heap_bytes"`
	Goroutines    int64   `json:"goroutines"`
	GCPauseP50US  float64 `json:"gc_pause_p50_us"`
	GCPauseP99US  float64 `json:"gc_pause_p99_us"`
	SchedLatP50US float64 `json:"sched_lat_p50_us"`
	SchedLatP99US float64 `json:"sched_lat_p99_us"`
}

// RuntimeOptions configures StartRuntimeSampler.
type RuntimeOptions struct {
	// Interval between samples. Zero means DefaultRuntimeInterval.
	Interval time.Duration
}

// DefaultRuntimeInterval is the sampling interval when
// RuntimeOptions.Interval is zero.
const DefaultRuntimeInterval = 10 * time.Second

// runtimeRing bounds the retained samples; the oldest is overwritten.
const runtimeRing = 120

// runtimeMetricNames are the runtime/metrics keys ReadRuntime reads.
var runtimeMetricNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// StartRuntimeSampler launches a background goroutine that snapshots
// the Go runtime every Interval and appends the sample to a fixed-size
// ring on the tracer. It is opt-in: nothing samples unless a caller
// starts it, so the nil-tracer zero-alloc contract and the disabled-by-
// default cost model are untouched. The returned stop function halts
// the sampler and waits for its goroutine to exit; it is idempotent.
// On a nil tracer nothing starts and stop is a no-op.
//
// One sample is taken synchronously before the goroutine starts, so
// even a run shorter than Interval records a snapshot.
func (t *Tracer) StartRuntimeSampler(opts RuntimeOptions) (stop func()) {
	if t == nil {
		return func() {}
	}
	interval := opts.Interval
	if interval <= 0 {
		interval = DefaultRuntimeInterval
	}
	t.rtMu.Lock()
	if t.rtRing == nil {
		t.rtRing = make([]RuntimeSample, runtimeRing)
	}
	t.rtMu.Unlock()
	t.sampleRuntime()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				t.sampleRuntime()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// sampleRuntime reads the runtime and pushes one sample onto the ring.
func (t *Tracer) sampleRuntime() {
	s := ReadRuntime()
	s.ElapsedUS = int64(t.clock() / time.Microsecond)
	t.rtMu.Lock()
	t.rtRing[t.rtNext] = s
	t.rtNext = (t.rtNext + 1) % len(t.rtRing)
	if t.rtCount < len(t.rtRing) {
		t.rtCount++
	}
	t.rtMu.Unlock()
}

// ReadRuntime reads the runtime metric set once and returns it with
// ElapsedUS zero. It is the one reader behind both the sampler and the
// daemons' scrape-time runtime gauges, and is safe for concurrent use.
func ReadRuntime() RuntimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var s RuntimeSample
	for _, m := range samples {
		switch m.Name {
		case "/memory/classes/heap/objects:bytes":
			if m.Value.Kind() == metrics.KindUint64 {
				s.HeapBytes = m.Value.Uint64()
			}
		case "/sched/goroutines:goroutines":
			if m.Value.Kind() == metrics.KindUint64 {
				s.Goroutines = int64(m.Value.Uint64())
			}
		case "/gc/pauses:seconds":
			if m.Value.Kind() == metrics.KindFloat64Histogram {
				h := m.Value.Float64Histogram()
				s.GCPauseP50US = histQuantile(h, 0.50) * 1e6
				s.GCPauseP99US = histQuantile(h, 0.99) * 1e6
			}
		case "/sched/latencies:seconds":
			if m.Value.Kind() == metrics.KindFloat64Histogram {
				h := m.Value.Float64Histogram()
				s.SchedLatP50US = histQuantile(h, 0.50) * 1e6
				s.SchedLatP99US = histQuantile(h, 0.99) * 1e6
			}
		}
	}
	return s
}

// histQuantile extracts an approximate quantile from a runtime/metrics
// Float64Histogram: the left edge of the first bucket whose cumulative
// count reaches q of the total (0 when the histogram is empty).
// Unbounded edge buckets fall back to their finite edge.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	if want == 0 {
		want = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= want {
			// Bucket i spans Buckets[i]..Buckets[i+1]; report the finite
			// lower edge (upper edge for the -Inf underflow bucket).
			lo := h.Buckets[i]
			if math.IsInf(lo, -1) {
				lo = h.Buckets[i+1]
			}
			if math.IsInf(lo, +1) {
				lo = h.Buckets[i]
			}
			return lo
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// RuntimeSamples returns the retained samples, oldest first. Nil tracer
// or never-started sampler yields nil.
func (t *Tracer) RuntimeSamples() []RuntimeSample {
	if t == nil {
		return nil
	}
	t.rtMu.Lock()
	defer t.rtMu.Unlock()
	if t.rtCount == 0 {
		return nil
	}
	out := make([]RuntimeSample, 0, t.rtCount)
	start := t.rtNext - t.rtCount
	if start < 0 {
		start += len(t.rtRing)
	}
	for i := 0; i < t.rtCount; i++ {
		out = append(out, t.rtRing[(start+i)%len(t.rtRing)])
	}
	return out
}

// FormatRuntimeSamples renders a sample history as an aligned table —
// the hoiho -runtimestats output. A nil/empty history prints a note
// instead of an empty table.
func FormatRuntimeSamples(w io.Writer, samples []RuntimeSample) error {
	if len(samples) == 0 {
		_, err := fmt.Fprintln(w, "runtime: no samples recorded")
		return err
	}
	if _, err := fmt.Fprintf(w, "%12s  %12s  %10s  %14s  %14s\n",
		"elapsed", "heap", "goroutines", "gc_pause_p99", "sched_lat_p99"); err != nil {
		return err
	}
	for _, s := range samples {
		if _, err := fmt.Fprintf(w, "%12s  %12d  %10d  %14s  %14s\n",
			time.Duration(s.ElapsedUS)*time.Microsecond,
			s.HeapBytes, s.Goroutines,
			time.Duration(s.GCPauseP99US*float64(time.Microsecond)),
			time.Duration(s.SchedLatP99US*float64(time.Microsecond))); err != nil {
			return err
		}
	}
	return nil
}
