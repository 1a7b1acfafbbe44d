package geoloc

import (
	"fmt"
	"sync"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/rex"
)

// benchHosts mix repeated, unseen-but-matching, and non-matching
// hostnames — the shape of measurement traffic.
var benchHosts = []string{
	"100ge1-1.core1.sjc1.he.net",
	"te0-0-0.core7.lhr1.he.net",
	"gcr-company.ve42.core9.ash1.he.net",
	"pos-0.munich0.de.alter.net",
	"totally-unconventional.he.net",
	"core1.sjc1.example-no-convention.com",
}

// BenchmarkIndexLookup is the serving hot path: compiled index, warm
// cache. Zero regex compilations happen per request — every pattern was
// compiled in New — so the steady state is a cache probe.
func BenchmarkIndexLookup(b *testing.B) {
	ix := newTestIndex(b, Options{})
	for _, h := range benchHosts {
		ix.Lookup(h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup(benchHosts[i%len(benchHosts)])
	}
}

// BenchmarkIndexLookupUncached measures the full dispatch + match +
// resolve path with the cache disabled (every request misses).
func BenchmarkIndexLookupUncached(b *testing.B) {
	ix := newTestIndex(b, Options{CacheSize: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup(benchHosts[i%len(benchHosts)])
	}
}

// BenchmarkIndexLookupParallel drives the shared index from all procs,
// the daemon's concurrency shape. Every goroutine cycles the same 6
// hostnames in step, so they contend on the same cache shards;
// BenchmarkIndexLookupGoldenParallel spreads them over the golden
// corpus.
func BenchmarkIndexLookupParallel(b *testing.B) {
	ix := newTestIndex(b, Options{})
	for _, h := range benchHosts {
		ix.Lookup(h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ix.Lookup(benchHosts[i%len(benchHosts)])
			i++
		}
	})
}

// BenchmarkIndexLookupGoldenParallel is cached lookups over the 740
// hostnames of the golden corpus under its conventions, by one
// goroutine and by two. Each goroutine cycles the hostnames from its
// own offset, an equal share of the corpus apart, and a warm pass
// first makes every lookup a cache hit. On a host with two or more
// CPUs it shows how cache hits scale with cores.
func BenchmarkIndexLookupGoldenParallel(b *testing.B) {
	_, ix := goldenIndex(b)
	hosts := goldenHostnames(b)
	for _, h := range hosts {
		ix.Lookup(h)
	}
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", n), func(b *testing.B) {
			misses := ix.Stats().CacheMisses
			b.ReportAllocs()
			var wg sync.WaitGroup
			for g := range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Goroutine g does every n'th of the b.N lookups.
					for i, at := g, g*len(hosts)/n; i < b.N; i, at = i+n, at+1 {
						ix.Lookup(hosts[at%len(hosts)])
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if m := ix.Stats().CacheMisses - misses; m != 0 {
				b.Fatalf("%d lookups missed the cache after the warm pass", m)
			}
		})
	}
}

// BenchmarkIndexLookupBatch is the batch API over a 1k-hostname slice.
func BenchmarkIndexLookupBatch(b *testing.B) {
	ix := newTestIndex(b, Options{})
	hosts := make([]string, 1000)
	for i := range hosts {
		hosts[i] = benchHosts[i%len(benchHosts)]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.LookupBatch(hosts)
	}
}

// BenchmarkPerCallLookupWarm is the pre-index apply path in its best
// case: psl dispatch plus core.Geolocate against conventions whose
// matchers are already built.
func BenchmarkPerCallLookupWarm(b *testing.B) {
	res, dict, list := learnFixture(b)
	for s, nc := range res.NCs {
		core.Geolocate(nc, dict, "warm.core1.sjc1."+s) // build the matchers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host := benchHosts[i%len(benchHosts)]
		core.Geolocate(res.NCs[list.RegistrableDomain(host)], dict, host)
	}
}

// BenchmarkPerCallLookupColdCompile is what the pre-index path actually
// paid per process (and what compile-on-demand costs per request when
// conventions are reloaded): every regex cache is cold, so matching
// compiles. The compiled Index never does this after New.
func BenchmarkPerCallLookupColdCompile(b *testing.B) {
	res, dict, list := learnFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host := benchHosts[i%len(benchHosts)]
		nc := res.NCs[list.RegistrableDomain(host)]
		if nc == nil {
			continue
		}
		cold := &core.NamingConvention{
			Suffix: nc.Suffix, Learned: nc.Learned, Class: nc.Class,
			Regexes: make([]*rex.Regex, len(nc.Regexes)),
		}
		for j, r := range nc.Regexes {
			cold.Regexes[j] = r.Clone()
		}
		core.Geolocate(cold, dict, host)
	}
}

// BenchmarkIndexBuild measures New over an already-learned result; the
// shared matchers are built after the first build, so this isolates
// dispatch-map construction.
func BenchmarkIndexBuild(b *testing.B) {
	res, dict, list := learnFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(res, Options{Dict: dict, PSL: list}); err != nil {
			b.Fatal(err)
		}
	}
}
