// Package geoloc is the serving layer of the Hoiho method: it compiles
// learned naming conventions (a core.Result, whether fresh from the
// pipeline or read back from a published conventions file) into an
// immutable, concurrency-safe lookup Index, the structure behind both
// the hoiho CLI's -geolocate flag and the geoserve HTTP daemon.
//
// Compilation does all per-request-avoidable work up front: hostnames
// dispatch to their convention by registrable domain (public suffix
// list), every regex is compiled exactly once at build time, and
// stage-4 learned geohints are resolved into O(1) overlay maps. Lookups
// after New never compile a regex. A bounded, sharded LRU cache absorbs
// repeated hostnames — the common shape of measurement traffic, where
// the same router interfaces recur across traces.
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
	// Tracer, when non-nil, records a compile span at New and per-batch
	// spans in LookupBatch. Single-hostname Lookup is deliberately not
	// spanned — it is the nanosecond-scale hot path — but all its work
	// still lands in the atomic Stats counters.
	Tracer *obs.Tracer
}

// hintKey identifies a learned-geohint overlay entry.
type hintKey struct {
	typ  geodict.HintType
	hint string
}

// convention is the compiled serving state for one suffix.
type convention struct {
	nc      *core.NamingConvention
	learned map[hintKey]*geodict.Location
	matches atomic.Uint64
}

// Index is a compiled, immutable set of naming conventions ready to
// geolocate hostnames. Build one with New; methods are safe for
// concurrent use.
type Index struct {
	dict   *geodict.Dictionary
	list   *psl.List
	convs  map[string]*convention
	cache  *cache      // nil when disabled
	tracer *obs.Tracer // nil when tracing disabled

	lookups     atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	matched     atomic.Uint64
	unmatched   atomic.Uint64
	byClass     [3]atomic.Uint64 // indexed by core.Classification
}

// New compiles a result's conventions into an Index. Every regex is
// compiled here — a convention whose pattern does not compile fails the
// build rather than silently never matching — and learned geohints are
// flattened into per-convention overlay maps (first entry wins on
// duplicates, matching Geolocate's scan order).
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
	compiled0, _ := rex.CompileCounts()
	matchers0, _ := rex.MatcherCounts()
	ix := &Index{dict: dict, list: list, convs: make(map[string]*convention, len(res.NCs)), tracer: opts.Tracer}
	for suffix, nc := range res.NCs {
		if nc == nil || (opts.UsableOnly && !nc.Class.Usable()) {
			continue
		}
		c := &convention{nc: nc, learned: make(map[hintKey]*geodict.Location, len(nc.Learned))}
		for _, r := range nc.Regexes {
			// Prepare builds the specialized rexmatch program (or, for a
			// regex outside its dialect, compiles the stdlib form) so no
			// Lookup ever pays compile cost — and a convention whose
			// pattern is invalid still fails the build here.
			if err := r.Prepare(); err != nil {
				return nil, fmt.Errorf("geoloc: suffix %s: %w", suffix, err)
			}
		}
		for _, lh := range nc.Learned {
			k := hintKey{lh.Type, lh.Hint}
			if _, dup := c.learned[k]; !dup {
				c.learned[k] = lh.Loc
			}
		}
		ix.convs[suffix] = c
	}
	size := opts.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	if size > 0 {
		ix.cache = newCache(size)
	}
	compiled1, _ := rex.CompileCounts()
	matchers1, _ := rex.MatcherCounts()
	sp.Count("conventions", int64(len(ix.convs)))
	sp.Count("regexes_compiled", compiled1-compiled0)
	sp.Count("matchers_compiled", matchers1-matchers0)
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
// convention, match its regexes in learned preference order, resolve
// the extracted geohint (learned overlay first, then dictionary). ok is
// false when no convention is indexed for the suffix, no regex matches,
// or the extraction resolves to no location. The returned Geolocation
// is shared with the cache and must not be mutated.
func (ix *Index) Lookup(hostname string) (*core.Geolocation, bool) {
	ix.lookups.Add(1)
	g, _ := ix.lookup(normalize(hostname))
	return g, g != nil
}

// lookup runs the cache-then-locate path for an already-normalized
// hostname, reporting whether the answer came from the cache so batch
// callers can count hits locally (reading the shared atomic counters
// per-batch would race with concurrent batches).
func (ix *Index) lookup(host string) (g *core.Geolocation, cacheHit bool) {
	if ix.cache != nil {
		if g, ok := ix.cache.get(host); ok {
			ix.cacheHits.Add(1)
			ix.count(g)
			return g, true
		}
		ix.cacheMisses.Add(1)
	}
	g = ix.locate(host)
	if ix.cache != nil {
		ix.cache.put(host, g)
	}
	ix.count(g)
	return g, false
}

// LookupBatch geolocates hostnames in order. The result slice is
// aligned with the input; entries are nil where the hostname did not
// resolve. Safe to call from many goroutines concurrently. When the
// index was built with a tracer, each batch records a span counting
// hostnames, located answers, and cache hits.
func (ix *Index) LookupBatch(hostnames []string) []*core.Geolocation {
	sp := ix.tracer.Start("lookup-batch")
	out := make([]*core.Geolocation, len(hostnames))
	var located, hits int64
	for i, h := range hostnames {
		ix.lookups.Add(1)
		g, hit := ix.lookup(normalize(h))
		out[i] = g
		if g != nil {
			located++
		}
		if hit {
			hits++
		}
	}
	sp.Count("hostnames", int64(len(hostnames)))
	sp.Count("located", located)
	sp.Count("cache_hits", hits)
	sp.End()
	return out
}

// locate runs the uncached lookup path.
func (ix *Index) locate(host string) *core.Geolocation {
	c := ix.convs[ix.list.RegistrableDomain(host)]
	if c == nil {
		return nil
	}
	for _, r := range c.nc.Regexes {
		ext, ok := r.Match(host)
		if !ok {
			continue
		}
		g := &core.Geolocation{
			Hostname: host, Suffix: c.nc.Suffix, Hint: ext.Hint, Type: ext.Type,
		}
		if loc, ok := c.learned[hintKey{ext.Type, ext.Hint}]; ok {
			g.Loc, g.Learned = loc, true
			return g
		}
		locs := core.DictionaryLocations(ix.dict, ext)
		if len(locs) == 0 {
			// Mirror core.Geolocate: the first matching regex decides;
			// an unresolvable extraction is a miss, not a fall-through.
			return nil
		}
		g.Loc = core.PickLocation(ix.dict, locs)
		return g
	}
	return nil
}

// count records a lookup outcome in the index counters.
func (ix *Index) count(g *core.Geolocation) {
	if g == nil {
		ix.unmatched.Add(1)
		return
	}
	ix.matched.Add(1)
	if c := ix.convs[g.Suffix]; c != nil {
		c.matches.Add(1)
		ix.byClass[c.nc.Class].Add(1)
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
// counter is itself exact).
func (ix *Index) Stats() Stats {
	s := Stats{
		Lookups:     ix.lookups.Load(),
		CacheHits:   ix.cacheHits.Load(),
		CacheMisses: ix.cacheMisses.Load(),
		Matched:     ix.matched.Load(),
		Unmatched:   ix.unmatched.Load(),
		ByClass:     make(map[string]uint64, len(ix.byClass)),
		BySuffix:    make(map[string]uint64),
	}
	for cls := range ix.byClass {
		if n := ix.byClass[cls].Load(); n > 0 {
			s.ByClass[core.Classification(cls).String()] = n
		}
	}
	for suffix, c := range ix.convs {
		if n := c.matches.Load(); n > 0 {
			s.BySuffix[suffix] = n
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
