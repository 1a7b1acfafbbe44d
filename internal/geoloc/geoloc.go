// Package geoloc is the serving layer of the Hoiho method: it compiles
// learned naming conventions (a core.Result, whether fresh from the
// pipeline or read back from a published conventions file) into an
// immutable, concurrency-safe lookup Index, the structure behind both
// the hoiho CLI's -geolocate flag and the geoserve HTTP daemon.
//
// Compilation does all per-request-avoidable work up front: hostnames
// dispatch to their convention by registrable domain (public suffix
// list), and every regex builds its matcher exactly once at build time,
// so lookups after New never build one. Each lookup then applies the
// convention through core.Decide, the decision procedure core.Geolocate
// and Explain share. A bounded, sharded LRU cache absorbs repeated
// hostnames — the common shape of measurement traffic, where the same
// router interfaces recur across traces.
//
// The Index is immutable after New: concurrent Lookup and LookupBatch
// callers need no external synchronization, and identical inputs
// produce identical answers regardless of interleaving (the cache only
// memoizes; it never changes a result).
package geoloc

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"hoiho/internal/core"
	"hoiho/internal/geodict"
	"hoiho/internal/obs"
	"hoiho/internal/psl"
	"hoiho/internal/rex"
)

// DefaultCacheSize is the result-cache bound used when Options.CacheSize
// is zero.
const DefaultCacheSize = 4096

// Options configures Index compilation. The zero value loads the
// embedded default dictionary and public suffix list, indexes every
// convention, and enables a DefaultCacheSize-entry cache.
type Options struct {
	// Dict resolves extracted geohints. nil loads geodict.Default.
	Dict *geodict.Dictionary
	// PSL dispatches hostnames to their registrable domain. nil loads
	// psl.Default.
	PSL *psl.List
	// UsableOnly restricts the index to good and promising conventions,
	// the paper's recommendation for production application.
	UsableOnly bool
	// CacheSize bounds the LRU result cache in entries. 0 means
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// Tracer, when non-nil, records a compile span at New (and, through
	// Source, learning and snapshot spans). Lookups open no span; they
	// count in the atomic Stats counters.
	Tracer *obs.Tracer
}

// convention is the serving state for one suffix.
type convention struct {
	nc *core.NamingConvention
	// matches counts the lookups the convention located; Stats derives
	// the matched and per-class totals from these counters.
	matches atomic.Uint64
}

// Index is a compiled, immutable set of naming conventions ready to
// geolocate hostnames. Build one with New; methods are safe for
// concurrent use.
type Index struct {
	dict  *geodict.Dictionary
	list  *psl.List
	convs map[string]*convention
	cache *cache // nil when disabled

	lookups     atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	unmatched   atomic.Uint64
}

// New compiles a result's conventions into an Index. Every regex builds
// its matcher here — a convention with a regex that cannot build fails
// the build rather than silently never matching.
func New(res *core.Result, opts Options) (*Index, error) {
	if res == nil {
		return nil, fmt.Errorf("geoloc: nil result")
	}
	dict := opts.Dict
	if dict == nil {
		var err error
		if dict, err = geodict.Default(); err != nil {
			return nil, err
		}
	}
	list := opts.PSL
	if list == nil {
		var err error
		if list, err = psl.Default(); err != nil {
			return nil, err
		}
	}
	sp := opts.Tracer.Start("geoloc-compile")
	matchers0 := rex.MatchersCompiled()
	ix := &Index{dict: dict, list: list, convs: make(map[string]*convention, len(res.NCs))}
	for suffix, nc := range res.NCs {
		if nc == nil || (opts.UsableOnly && !nc.Class.Usable()) {
			continue
		}
		for _, r := range nc.Regexes {
			if err := r.Prepare(); err != nil {
				return nil, fmt.Errorf("geoloc: suffix %s: %w", suffix, err)
			}
		}
		ix.convs[suffix] = &convention{nc: nc}
	}
	size := opts.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	if size > 0 {
		ix.cache = newCache(size)
	}
	sp.Count("conventions", int64(len(ix.convs)))
	sp.Count("matchers_compiled", rex.MatchersCompiled()-matchers0)
	sp.End()
	return ix, nil
}

// Len returns the number of indexed conventions.
func (ix *Index) Len() int { return len(ix.convs) }

// Suffixes returns the indexed suffixes, sorted.
func (ix *Index) Suffixes() []string {
	out := make([]string, 0, len(ix.convs))
	for s := range ix.convs {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Suffix returns the registrable domain the index would dispatch a
// hostname to, after normalization.
func (ix *Index) Suffix(hostname string) string {
	return ix.list.RegistrableDomain(normalize(hostname))
}

// Convention returns the indexed convention for a suffix, or nil.
func (ix *Index) Convention(suffix string) *core.NamingConvention {
	if c := ix.convs[suffix]; c != nil {
		return c.nc
	}
	return nil
}

// Lookup geolocates one hostname: normalize, dispatch to the suffix's
// convention, and apply it with core.Decide. ok is false when no
// convention is indexed for the suffix, no regex matches, or the first
// match's geohint resolves to no location. The returned Geolocation is
// shared with the cache and must not be mutated.
func (ix *Index) Lookup(hostname string) (*core.Geolocation, bool) {
	ix.lookups.Add(1)
	host := normalize(hostname)
	if ix.cache != nil {
		if g, ok := ix.cache.get(host); ok {
			ix.cacheHits.Add(1)
			ix.count(g)
			return g, g != nil
		}
		ix.cacheMisses.Add(1)
	}
	g := ix.locate(host)
	if ix.cache != nil {
		ix.cache.put(host, g)
	}
	ix.count(g)
	return g, g != nil
}

// LookupBatch geolocates hostnames in order. The result slice is
// aligned with the input; entries are nil where the hostname did not
// resolve. Safe to call from many goroutines concurrently.
func (ix *Index) LookupBatch(hostnames []string) []*core.Geolocation {
	out := make([]*core.Geolocation, len(hostnames))
	for i, h := range hostnames {
		out[i], _ = ix.Lookup(h)
	}
	return out
}

// locate runs the uncached lookup path.
func (ix *Index) locate(host string) *core.Geolocation {
	c := ix.convs[ix.list.RegistrableDomain(host)]
	if c == nil {
		return nil
	}
	return core.Decide(c.nc, ix.dict, host).Geolocation(c.nc, host)
}

// count records a lookup outcome in the index counters.
func (ix *Index) count(g *core.Geolocation) {
	if g == nil {
		ix.unmatched.Add(1)
		return
	}
	if c := ix.convs[g.Suffix]; c != nil {
		c.matches.Add(1)
	}
}

// Stats is a point-in-time snapshot of the index counters.
type Stats struct {
	Lookups     uint64 `json:"lookups"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Matched     uint64 `json:"matched"`
	Unmatched   uint64 `json:"unmatched"`
	// ByClass counts matches per NC classification name.
	ByClass map[string]uint64 `json:"by_class"`
	// BySuffix counts matches per suffix; suffixes with zero matches are
	// omitted.
	BySuffix map[string]uint64 `json:"by_suffix"`
}

// Stats snapshots the counters. Counters are read individually, so a
// snapshot taken during concurrent lookups is approximate (but each
// counter is itself exact). Matched and ByClass are sums of the same
// per-convention reads as BySuffix, so they always agree with it, and
// they never go backwards, since each counter only grows.
func (ix *Index) Stats() Stats {
	s := Stats{
		Lookups:     ix.lookups.Load(),
		CacheHits:   ix.cacheHits.Load(),
		CacheMisses: ix.cacheMisses.Load(),
		Unmatched:   ix.unmatched.Load(),
		ByClass:     make(map[string]uint64),
		BySuffix:    make(map[string]uint64),
	}
	for suffix, c := range ix.convs {
		if n := c.matches.Load(); n > 0 {
			s.Matched += n
			s.BySuffix[suffix] = n
			s.ByClass[c.nc.Class.String()] += n
		}
	}
	return s
}

// add accumulates o's counters into s.
func (s *Stats) add(o Stats) {
	s.Lookups += o.Lookups
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Matched += o.Matched
	s.Unmatched += o.Unmatched
	s.ByClass = addCounts(s.ByClass, o.ByClass)
	s.BySuffix = addCounts(s.BySuffix, o.BySuffix)
}

func addCounts(dst, src map[string]uint64) map[string]uint64 {
	if dst == nil {
		dst = make(map[string]uint64, len(src))
	}
	for k, n := range src {
		dst[k] += n
	}
	return dst
}

// normalize canonicalises a hostname for matching and caching: naming
// conventions are learned over lower-case hostnames without a trailing
// root dot.
func normalize(hostname string) string {
	return strings.ToLower(strings.TrimSuffix(strings.TrimSpace(hostname), "."))
}
