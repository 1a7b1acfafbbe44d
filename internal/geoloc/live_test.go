package geoloc

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hoiho/internal/core"
)

func TestLiveSwapGeneration(t *testing.T) {
	ixA := newTestIndex(t, Options{CacheSize: -1})
	ixB := newTestIndex(t, Options{CacheSize: -1})
	live := NewLive(ixA)
	if live.Generation() != 1 {
		t.Fatalf("boot generation = %d, want 1", live.Generation())
	}
	if live.Index() != ixA {
		t.Fatal("boot index not served")
	}
	old, gen := live.Swap(ixB)
	if old != ixA || gen != 2 {
		t.Fatalf("Swap returned (%p, %d), want (%p, 2)", old, gen, ixA)
	}
	if live.Index() != ixB || live.Generation() != 2 {
		t.Fatal("swap did not publish the replacement")
	}
}

// TestLiveConcurrentSwaps drives lookups from many goroutines while the
// index is swapped repeatedly — the zero-downtime property, checked
// under the race detector in CI. Every lookup must complete against a
// coherent index; a request that loaded the old pointer finishes on it.
func TestLiveConcurrentSwaps(t *testing.T) {
	ixA := newTestIndex(t, Options{CacheSize: -1})
	ixB := newTestIndex(t, Options{CacheSize: -1})
	live := NewLive(ixA)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Stats readers run beside the swaps: the lookup total they see
	// must never go backwards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := live.Stats().Lookups
			if n < last {
				t.Errorf("Stats().Lookups went from %d to %d across a swap", last, n)
				return
			}
			last = n
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ix := live.Index()
				for _, host := range probeHosts {
					ix.Lookup(host)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		next := ixB
		if i%2 == 1 {
			next = ixA
		}
		live.Swap(next)
	}
	close(stop)
	wg.Wait()
	if live.Generation() != 51 {
		t.Fatalf("generation = %d after 50 swaps, want 51", live.Generation())
	}
}

// TestLiveStatsSurviveSwap: Live's counters add every retired index's
// to the serving one's, so no counter, per-suffix and per-class ones
// included, goes backwards across a swap.
func TestLiveStatsSurviveSwap(t *testing.T) {
	ixA := newTestIndex(t, Options{CacheSize: -1})
	ixB := newTestIndex(t, Options{CacheSize: -1})
	live := NewLive(ixA)
	for _, host := range probeHosts {
		live.Index().Lookup(host)
	}
	before := live.Stats()
	if before.Matched == 0 {
		t.Fatal("probe lookups matched nothing")
	}
	live.Swap(ixB)
	live.Index().Lookup("100ge1-1.core1.sjc1.he.net")
	after := live.Stats()
	if after.Lookups != before.Lookups+1 || after.Matched != before.Matched+1 ||
		after.BySuffix["he.net"] != before.BySuffix["he.net"]+1 {
		t.Errorf("after swap and one match: %+v, want %+v plus one he.net match", after, before)
	}
	for suffix, n := range before.BySuffix {
		if after.BySuffix[suffix] < n {
			t.Errorf("suffix %s: %d matches after swap, %d before", suffix, after.BySuffix[suffix], n)
		}
	}
	for class, n := range before.ByClass {
		if after.ByClass[class] < n {
			t.Errorf("class %s: %d matches after swap, %d before", class, after.ByClass[class], n)
		}
	}
}

// TestLiveReload: a successful reload swaps in a fresh index as the
// next generation, records its build and swap latencies and leaves the
// lookup counters as they were; a failed one, of a corrupt snapshot or
// of one with no conventions, counts a failure and leaves the serving
// index in place.
func TestLiveReload(t *testing.T) {
	res, dict, list := learnFixture(t)
	var buf bytes.Buffer
	if err := Save(&buf, res, nil); err != nil {
		t.Fatal(err)
	}
	src := &Source{Snapshot: filepath.Join(t.TempDir(), "index.snap")}
	if err := os.WriteFile(src.Snapshot, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{Dict: dict, PSL: list}
	boot := newTestIndex(t, opts)
	live := NewLive(boot)
	if rs := live.ReloadStats(); rs != (ReloadStats{Generation: 1}) {
		t.Fatalf("boot reload stats = %+v", rs)
	}

	for _, host := range probeHosts {
		live.Index().Lookup(host)
	}
	before := live.Stats()
	st, err := live.Reload(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after := live.Stats(); !reflect.DeepEqual(after, before) {
		t.Errorf("reload of an unchanged source moved the lookup counters: %+v, before %+v", after, before)
	}
	if st.Generation != 2 || st.Suffixes != boot.Len() || live.Index() == boot {
		t.Errorf("Reload = %+v, want a fresh %d-suffix index at generation 2", st, boot.Len())
	}
	rs := live.ReloadStats()
	if rs.Reloads != 1 || rs.Failures != 0 || rs.Generation != 2 ||
		rs.LastBuildUS != st.BuildUS || rs.LastSwapUS != st.SwapUS || rs.LastBuildUS <= 0 {
		t.Errorf("reload stats = %+v after %+v", rs, st)
	}

	var empty bytes.Buffer
	if err := Save(&empty, &core.Result{NCs: map[string]*core.NamingConvention{}}, nil); err != nil {
		t.Fatal(err)
	}
	serving := live.Index()
	for i, bad := range []struct {
		name string
		data []byte
	}{{"corrupt snapshot", []byte("garbage")}, {"no conventions", empty.Bytes()}} {
		t.Run(bad.name, func(t *testing.T) {
			if err := os.WriteFile(src.Snapshot, bad.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := live.Reload(src, opts); err == nil {
				t.Fatal("reload succeeded")
			}
			if rs := live.ReloadStats(); live.Index() != serving || rs.Generation != 2 || rs.Failures != int64(i+1) || rs.Reloads != 1 {
				t.Errorf("after the failed reload: stats %+v, serving index replaced: %v", rs, live.Index() != serving)
			}
		})
	}
}

// TestUnreachableSuffixRefused: a conventions file holding a co.uk
// convention, which no hostname dispatches to (a hostname under co.uk
// dispatches to its own registrable domain), beside a valid he.net
// one. Boot and reload build the index through the same geoloc.New and
// refuse the file with the same error, naming co.uk; the failed reload
// keeps the serving index and counts one failure.
func TestUnreachableSuffixRefused(t *testing.T) {
	src := &Source{NC: filepath.Join("..", "..", "testdata", "couk.conventions.txt")}
	_, bootErr := src.Resolve(Options{})
	if bootErr == nil || !strings.Contains(bootErr.Error(), "suffix co.uk: unreachable") {
		t.Fatalf("Resolve = %v, want co.uk refused as unreachable", bootErr)
	}
	res, err := LoadConventions(src.NC)
	if err != nil {
		t.Fatal(err)
	}
	delete(res.NCs, "co.uk")
	serving, err := New(res, Options{})
	if err != nil {
		t.Fatalf("he.net alone: %v", err)
	}
	live := NewLive(serving)
	if _, err := live.Reload(src, Options{}); err == nil || err.Error() != bootErr.Error() {
		t.Errorf("Reload = %v, want the boot error %v", err, bootErr)
	}
	if rs := live.ReloadStats(); live.Index() != serving || rs.Generation != 1 || rs.Failures != 1 || rs.Reloads != 0 {
		t.Errorf("after the refused reload: stats %+v, serving index replaced: %v", rs, live.Index() != serving)
	}
}
