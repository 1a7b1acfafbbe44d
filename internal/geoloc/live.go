package geoloc

// Zero-downtime serving: a Live holder publishes the current Index
// behind an atomic pointer so lookups never block on a reload. A swap
// is a single pointer store — in-flight requests that already loaded
// the old Index finish against it (immutability makes that safe), and
// the old Index drains naturally: once the last in-flight reference is
// dropped the garbage collector reclaims it. There is no lock on the
// lookup path and no quiesce window.
//
// Live also owns the reload lifecycle both daemons run (Reload) and
// the lookup counters they export (Stats), which carry across swaps.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// spotCheckSamples is how many suffixes a reload validates against the
// outgoing index before the swap.
const spotCheckSamples = 16

// Live is an atomically swappable reference to the serving Index.
// Its methods are safe for concurrent use from any number of
// goroutines.
type Live struct {
	ptr atomic.Pointer[Index]
	gen atomic.Uint64

	// statsMu orders Swap's fold of the outgoing index's counters into
	// retired against Stats, so no snapshot misses or doubles an index.
	statsMu sync.Mutex
	retired Stats

	reloadMu    sync.Mutex // one Reload at a time
	reloads     atomic.Int64
	failures    atomic.Int64
	lastBuildUS atomic.Int64
	lastSwapUS  atomic.Int64
}

// NewLive publishes ix as generation 1.
func NewLive(ix *Index) *Live {
	l := &Live{}
	l.ptr.Store(ix)
	l.gen.Store(1)
	return l
}

// Index returns the current serving index. Callers should load it once
// per request and use that reference throughout, so a mid-request swap
// cannot split one request across two indexes.
func (l *Live) Index() *Index { return l.ptr.Load() }

// Swap atomically replaces the serving index, returning the index it
// displaced and the new generation number. The old index remains valid
// for readers that already hold it. Its counters so far join Stats'
// running total; lookups that finish on it after the swap are not
// counted, and an index swapped in a second time counts its earlier
// lookups twice, so publish each index once (Reload always builds a
// fresh one).
func (l *Live) Swap(next *Index) (old *Index, gen uint64) {
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	old = l.ptr.Swap(next)
	l.retired.add(old.Stats())
	return old, l.gen.Add(1)
}

// Generation returns the current generation: 1 for the boot index,
// incremented by every Swap.
func (l *Live) Generation() uint64 { return l.gen.Load() }

// Stats snapshots the lookup counters of every index this Live has
// served: the current one's plus those every Swap retired. A counter
// therefore never goes backwards across a reload, and a suffix's match
// count can be followed across convention updates.
func (l *Live) Stats() Stats {
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	s := l.Index().Stats()
	s.add(l.retired)
	return s
}

// ReloadStatus describes one successful Reload. BuildUS covers
// resolving and compiling the replacement; SwapUS covers the spot check
// plus the swap, the window in which the replacement exists but is not
// yet serving. Lookups proceed normally throughout.
type ReloadStatus struct {
	Generation uint64 `json:"generation"`
	Suffixes   int    `json:"suffixes"`
	BuildUS    int64  `json:"build_us"`
	SwapUS     int64  `json:"swap_us"`
}

// Reload builds a replacement index from src with opts (the files src
// names are re-read), validates it against the serving one with
// SpotCheck, and swaps it in. Reloads serialize; lookups are never
// blocked. A failed reload leaves the serving index in place and
// counts a failure.
func (l *Live) Reload(src *Source, opts Options) (ReloadStatus, error) {
	l.reloadMu.Lock()
	defer l.reloadMu.Unlock()
	t0 := time.Now()
	resolved, err := src.Resolve(opts)
	t1 := time.Now()
	if err == nil {
		err = SpotCheck(l.Index(), resolved.Index, spotCheckSamples)
	}
	if err != nil {
		l.failures.Add(1)
		return ReloadStatus{}, err
	}
	_, gen := l.Swap(resolved.Index)
	st := ReloadStatus{
		Generation: gen,
		Suffixes:   resolved.Index.Len(),
		BuildUS:    t1.Sub(t0).Microseconds(),
		SwapUS:     time.Since(t1).Microseconds(),
	}
	l.reloads.Add(1)
	l.lastBuildUS.Store(st.BuildUS)
	l.lastSwapUS.Store(st.SwapUS)
	return st, nil
}

// ReloadStats is a snapshot of the reload lifecycle counters.
type ReloadStats struct {
	Generation  uint64 `json:"generation"`
	Reloads     int64  `json:"reloads"`
	Failures    int64  `json:"failures"`
	LastBuildUS int64  `json:"last_build_us"`
	LastSwapUS  int64  `json:"last_swap_us"`
}

// ReloadStats snapshots the serving generation, the reload outcome
// counters, and the timings of the last successful reload.
func (l *Live) ReloadStats() ReloadStats {
	return ReloadStats{
		Generation:  l.Generation(),
		Reloads:     l.reloads.Load(),
		Failures:    l.failures.Load(),
		LastBuildUS: l.lastBuildUS.Load(),
		LastSwapUS:  l.lastSwapUS.Load(),
	}
}

// SpotCheck validates a replacement index before it is swapped in: the
// replacement must be non-nil and non-empty, probe lookups over a
// deterministic sample of its suffixes must complete (exercising
// normalization, PSL dispatch, and the compiled matchers), and for
// sampled suffixes the old and new index must agree on dispatch — a
// probe hostname under a shared suffix must route to the same
// registrable domain in both, which catches a PSL or normalization skew
// between build and serve. old may be nil (boot); samples <= 0 checks
// every suffix.
//
// The probes run against the real lookup path, so they count in the new
// index's stats and may seed its cache; both effects are harmless. The
// probes' lookup outcomes are deliberately not asserted — whether a
// probe matches depends on the learned regexes, which a reload is
// allowed to change.
func SpotCheck(old, next *Index, samples int) error {
	if next == nil {
		return fmt.Errorf("geoloc: spot-check: replacement index is nil")
	}
	if next.Len() == 0 {
		return fmt.Errorf("geoloc: spot-check: replacement index is empty")
	}
	suffixes := next.Suffixes()
	if samples > 0 && len(suffixes) > samples {
		suffixes = suffixes[:samples]
	}
	for _, suffix := range suffixes {
		probe := "spotcheck." + suffix
		next.Lookup(probe) // must complete: dispatch + matcher walk, no panic
		if got := next.Suffix(probe); got != suffix {
			return fmt.Errorf("geoloc: spot-check: probe %q dispatches to %q, want %q", probe, got, suffix)
		}
		if old != nil && old.Convention(suffix) != nil {
			if oldGot := old.Suffix(probe); oldGot != suffix {
				return fmt.Errorf("geoloc: spot-check: dispatch skew on %s: old index routes %q to %q",
					suffix, probe, oldGot)
			}
		}
	}
	return nil
}
