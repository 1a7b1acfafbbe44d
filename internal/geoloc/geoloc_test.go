package geoloc

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/geo"
	"hoiho/internal/geodict"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
	"hoiho/internal/rex"
	"hoiho/internal/rtt"
)

// The serving tests run the real pipeline over a hand-built corpus (the
// same shape internal/core's fixture uses: honest deterministic RTTs of
// min-of-light * 1.25 + 1ms) so the Index is exercised against a live
// Result with a stage-4 learned geohint, not a synthetic stand-in.

type fixture struct {
	dict   *geodict.Dictionary
	list   *psl.List
	corpus *itdk.Corpus
	matrix *rtt.Matrix
	nextIP int
}

func newTestFixture(t testing.TB) *fixture {
	t.Helper()
	dict := geodict.MustDefault()
	var vps []*rtt.VP
	for _, v := range []struct{ name, city, region, country string }{
		{"cgs-us", "college park", "md", "us"},
		{"lon-gb", "london", "", "gb"},
		{"zrh-ch", "zurich", "zh", "ch"},
		{"tyo-jp", "tokyo", "", "jp"},
		{"sjc-us", "san jose", "ca", "us"},
	} {
		loc := placeIn(t, dict, v.city, v.region, v.country)
		vps = append(vps, &rtt.VP{Name: v.name, City: v.city, Country: v.country, Pos: loc.Pos})
	}
	return &fixture{
		dict:   dict,
		list:   psl.MustDefault(),
		corpus: itdk.NewCorpus("test", false),
		matrix: rtt.NewMatrix(vps),
	}
}

func placeIn(t testing.TB, d *geodict.Dictionary, city, region, country string) *geodict.Location {
	t.Helper()
	for _, loc := range d.Place(city) {
		if loc.Region == region && loc.Country == country {
			return loc
		}
	}
	t.Fatalf("place %s/%s/%s not in dictionary", city, region, country)
	return nil
}

func (f *fixture) addRouter(t testing.TB, id string, loc *geodict.Location, hostname string) {
	t.Helper()
	f.nextIP++
	addr := netip.MustParseAddr(fmt.Sprintf("192.0.2.%d", f.nextIP%250+1))
	r := &itdk.Router{
		ID:         id,
		Interfaces: []itdk.Interface{{Addr: addr, Hostname: hostname}},
		Truth: &itdk.GroundTruth{
			City: loc.City, Region: loc.Region, Country: loc.Country, Pos: loc.Pos,
		},
	}
	if err := f.corpus.Add(r); err != nil {
		t.Fatal(err)
	}
	for _, vp := range f.matrix.VPs() {
		ms := geo.MinRTTms(vp.Pos, loc.Pos)*1.25 + 1.0
		if err := f.matrix.SetPing(id, vp.Name, rtt.Sample{RTTms: ms, Method: rtt.ICMP}); err != nil {
			t.Fatal(err)
		}
	}
}

var learned struct {
	once sync.Once
	res  *core.Result
	dict *geodict.Dictionary
	list *psl.List
	err  error
}

// learnFixture runs the pipeline once per test binary: an IATA
// convention with a learned "ash" geohint on he.net, and a place-name
// convention on alter.net.
func learnFixture(t testing.TB) (*core.Result, *geodict.Dictionary, *psl.List) {
	t.Helper()
	learned.once.Do(func() {
		f := newTestFixture(t)
		id := 0
		for _, c := range []struct {
			code                  string
			city, region, country string
			n                     int
		}{
			{"sjc", "san jose", "ca", "us", 3},
			{"fra", "frankfurt am main", "he", "de", 3},
			{"lhr", "london", "", "gb", 3},
			{"tyo", "tokyo", "", "jp", 3},
			{"ash", "ashburn", "va", "us", 4}, // custom hint, learned in stage 4
		} {
			loc := placeIn(t, f.dict, c.city, c.region, c.country)
			for i := 1; i <= c.n; i++ {
				id++
				f.addRouter(t, fmt.Sprintf("N%d", id), loc,
					fmt.Sprintf("100ge%d-1.core%d.%s1.he.net", i, i, c.code))
			}
		}
		for i, city := range []struct{ city, region, country string }{
			{"munich", "by", "de"}, {"stuttgart", "bw", "de"},
			{"dresden", "sn", "de"}, {"hamburg", "hh", "de"},
		} {
			loc := placeIn(t, f.dict, city.city, city.region, city.country)
			f.addRouter(t, fmt.Sprintf("M%d", i), loc,
				fmt.Sprintf("pos-%d.%s%d.de.alter.net", i, geodict.NormalizeName(loc.City), i))
		}
		learned.dict, learned.list = f.dict, f.list
		learned.res, learned.err = core.Run(
			core.Inputs{Dict: f.dict, PSL: f.list, Corpus: f.corpus, RTT: f.matrix},
			core.DefaultConfig())
	})
	if learned.err != nil {
		t.Fatal(learned.err)
	}
	if learned.res.NCs["he.net"] == nil || len(learned.res.NCs["he.net"].Learned) == 0 {
		t.Fatal("fixture did not learn the he.net convention with a custom hint")
	}
	return learned.res, learned.dict, learned.list
}

func newTestIndex(t testing.TB, opts Options) *Index {
	t.Helper()
	res, dict, list := learnFixture(t)
	opts.Dict, opts.PSL = dict, list
	ix, err := New(res, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// probeHosts cover every lookup outcome: seen hostnames, unseen
// hostnames under a learned convention (including the learned "ash"
// hint), a second suffix, regex misses, and unknown suffixes.
var probeHosts = []string{
	"100ge1-1.core1.sjc1.he.net",
	"100ge3-1.core3.lhr1.he.net",
	"te0-0-0.core1.sjc1.he.net",            // unseen, dictionary hint
	"gcr-company.ve42.core9.ash1.he.net",   // unseen, learned hint
	"GCR-Company.VE42.Core9.ASH1.HE.NET.",  // case + root dot
	"pos-0.munich0.de.alter.net",           // second suffix
	"pos-9.hamburg77.de.alter.net",         // unseen under alter.net
	"totally-unconventional.he.net",        // no regex match
	"core1.sjc1.example-no-convention.com", // unknown suffix
	"100ge1-1.core1.xxq1.he.net",           // matches but not in dictionary
	"",
}

func TestLookupLiveResult(t *testing.T) {
	ix := newTestIndex(t, Options{})
	g, ok := ix.Lookup("gcr-company.ve42.core9.ash1.he.net")
	if !ok {
		t.Fatal("lookup of learned-hint hostname failed")
	}
	if g.Loc.City != "ashburn" || !g.Learned {
		t.Errorf("ash1 = %+v, want learned ashburn", g)
	}
	g, ok = ix.Lookup("te0-0-0.core1.sjc1.he.net")
	if !ok || g.Loc.City != "san jose" || g.Learned {
		t.Errorf("sjc1 = %+v ok=%v, want dictionary san jose", g, ok)
	}
	g, ok = ix.Lookup("pos-9.hamburg77.de.alter.net")
	if !ok || g.Loc.City != "hamburg" {
		t.Errorf("hamburg = %+v ok=%v", g, ok)
	}
	if _, ok := ix.Lookup("core1.sjc1.example-no-convention.com"); ok {
		t.Error("unknown suffix should not resolve")
	}
}

func TestLookupNormalizesHostnames(t *testing.T) {
	ix := newTestIndex(t, Options{})
	g, ok := ix.Lookup("GCR-Company.VE42.Core9.ASH1.HE.NET.")
	if !ok || g.Loc.City != "ashburn" {
		t.Fatalf("uppercase+root-dot lookup = %+v ok=%v", g, ok)
	}
	if g.Hostname != "gcr-company.ve42.core9.ash1.he.net" {
		t.Errorf("Hostname = %q, want normalized", g.Hostname)
	}
}

// goldenIndex compiles the committed golden conventions over the
// embedded dictionary and public suffix list, as geoserve -nc does.
func goldenIndex(t testing.TB) (*core.Result, *Index) {
	t.Helper()
	res, err := LoadConventions(filepath.Join("..", "..", "testdata", "golden", "conventions.txt"))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, ix
}

// goldenHostnames returns every hostname of the golden corpus.
func goldenHostnames(t testing.TB) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "corpus.names"))
	if err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			hosts = append(hosts, f[len(f)-1])
		}
	}
	if len(hosts) != 740 {
		t.Fatalf("read %d hostnames, want the whole corpus (740)", len(hosts))
	}
	return hosts
}

// TestIndexMatchesGeolocate pins the contract that the compiled index
// answers as the per-call core.Geolocate path does, on the probe
// hostnames and on every hostname of the golden corpus.
func TestIndexMatchesGeolocate(t *testing.T) {
	res, _, _ := learnFixture(t)
	goldenRes, golden := goldenIndex(t)
	for _, tc := range []struct {
		res   *core.Result
		ix    *Index
		hosts []string
	}{
		{res, newTestIndex(t, Options{}), probeHosts},
		{goldenRes, golden, goldenHostnames(t)},
	} {
		for _, host := range tc.hosts {
			want, wantOK := core.Geolocate(tc.res.NCs[tc.ix.Suffix(host)], tc.ix.dict, normalize(host))
			got, gotOK := tc.ix.Lookup(host)
			if wantOK != gotOK {
				t.Errorf("%s: index ok=%v, Geolocate ok=%v", host, gotOK, wantOK)
				continue
			}
			if !gotOK {
				continue
			}
			if got.Loc.Key() != want.Loc.Key() || got.Learned != want.Learned || got.Hostname != want.Hostname ||
				got.Hint != want.Hint || got.Type != want.Type || got.Suffix != want.Suffix {
				t.Errorf("%s: index %+v != Geolocate %+v", host, got, want)
			}
		}
	}
}

// TestDecideCauses drives core.Decide through each of its five causes
// on the probe hostnames, checking the regex it stopped at and the
// dictionary interpretations it counted.
func TestDecideCauses(t *testing.T) {
	ix := newTestIndex(t, Options{})
	type want struct {
		cause      core.Cause
		regex      int
		candidates int
	}
	wants := map[string]want{
		"100ge1-1.core1.sjc1.he.net":           {core.CauseDictionary, 0, 1},
		"100ge3-1.core3.lhr1.he.net":           {core.CauseDictionary, 0, 1},
		"te0-0-0.core1.sjc1.he.net":            {core.CauseDictionary, 0, 1},
		"gcr-company.ve42.core9.ash1.he.net":   {core.CauseLearned, 0, 0},
		"GCR-Company.VE42.Core9.ASH1.HE.NET.":  {core.CauseLearned, 0, 0},
		"pos-0.munich0.de.alter.net":           {core.CauseDictionary, 0, 1},
		"pos-9.hamburg77.de.alter.net":         {core.CauseDictionary, 0, 1},
		"totally-unconventional.he.net":        {core.CauseNoMatch, 1, 0},
		"core1.sjc1.example-no-convention.com": {core.CauseNoConvention, 0, 0},
		"100ge1-1.core1.xxq1.he.net":           {core.CauseUnresolved, 0, 0},
		"":                                     {core.CauseNoConvention, 0, 0},
	}
	var seen [core.CauseDictionary + 1]bool
	for _, host := range probeHosts {
		w, ok := wants[host]
		if !ok {
			t.Fatalf("probe %q has no expected decision", host)
		}
		d := core.Decide(ix.Convention(ix.Suffix(host)), ix.dict, normalize(host))
		if got := (want{d.Cause, d.Regex, d.Candidates}); got != w {
			t.Errorf("%q: decision %+v, want %+v", host, got, w)
		}
		if (d.Learned != nil) != (d.Cause == core.CauseLearned) {
			t.Errorf("%q: learned hint %v under cause %d", host, d.Learned, d.Cause)
		}
		seen[d.Cause] = true
	}
	for cause, ok := range seen {
		if !ok {
			t.Errorf("no probe hostname decides cause %d", cause)
		}
	}
}

// TestDecideGoldenCauses pins how the golden corpus's hostnames spread
// over the five causes under the committed conventions.
func TestDecideGoldenCauses(t *testing.T) {
	_, ix := goldenIndex(t)
	var got [core.CauseDictionary + 1]int
	for _, host := range goldenHostnames(t) {
		got[core.Decide(ix.Convention(ix.Suffix(host)), ix.dict, normalize(host)).Cause]++
	}
	// no convention, no match, unresolved, learned, dictionary
	if want := [...]int{47, 39, 5, 110, 539}; got != want {
		t.Errorf("golden causes = %v, want %v", got, want)
	}
}

// TestRoundTripServing is the conventions round-trip under serving: an
// Index built from ReadConventions(WriteConventions(res)) geolocates
// identically to one built from the live Result, including learned-hint
// overlays.
func TestRoundTripServing(t *testing.T) {
	res, dict, list := learnFixture(t)
	var buf bytes.Buffer
	if err := core.WriteConventions(&buf, res); err != nil {
		t.Fatal(err)
	}
	res2, err := core.ReadConventions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	live := newTestIndex(t, Options{})
	rt, err := New(res2, Options{Dict: dict, PSL: list})
	if err != nil {
		t.Fatal(err)
	}
	if live.Len() != rt.Len() {
		t.Fatalf("live index has %d conventions, round-tripped %d", live.Len(), rt.Len())
	}
	for _, host := range probeHosts {
		a, aok := live.Lookup(host)
		b, bok := rt.Lookup(host)
		if aok != bok {
			t.Errorf("%s: live ok=%v, round-trip ok=%v", host, aok, bok)
			continue
		}
		if !aok {
			continue
		}
		if a.Loc.Key() != b.Loc.Key() || a.Learned != b.Learned ||
			a.Hint != b.Hint || a.Type != b.Type || a.Suffix != b.Suffix {
			t.Errorf("%s: live %+v != round-trip %+v", host, a, b)
		}
		if a.Learned != b.Learned {
			t.Errorf("%s: learned overlay lost in round-trip", host)
		}
	}
}

func TestLookupBatchOrderAndAlignment(t *testing.T) {
	ix := newTestIndex(t, Options{})
	out := ix.LookupBatch(probeHosts)
	if len(out) != len(probeHosts) {
		t.Fatalf("batch returned %d results for %d hostnames", len(out), len(probeHosts))
	}
	for i, host := range probeHosts {
		want, wantOK := ix.Lookup(host)
		if (out[i] != nil) != wantOK {
			t.Errorf("batch[%d] %s: got %v, want ok=%v", i, host, out[i], wantOK)
		}
		if out[i] != nil && out[i].Loc.Key() != want.Loc.Key() {
			t.Errorf("batch[%d] %s: %v != %v", i, host, out[i], want)
		}
	}
}

// TestLookupBatchConcurrent hammers a shared index from many goroutines
// — run under -race this is the serving concurrency contract.
func TestLookupBatchConcurrent(t *testing.T) {
	ix := newTestIndex(t, Options{CacheSize: 64}) // small cache forces eviction races
	const goroutines = 8
	iters := 60
	if testing.Short() {
		iters = 20
	}
	want := make(map[string]*core.Geolocation, len(probeHosts))
	for i, g := range ix.LookupBatch(probeHosts) {
		want[probeHosts[i]] = g
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			// Each goroutine walks its own rotation so callers disagree
			// about cache access order.
			rot := seed % len(probeHosts)
			hosts := append(append([]string(nil), probeHosts[rot:]...), probeHosts[:rot]...)
			for i := 0; i < iters; i++ {
				for j, g := range ix.LookupBatch(hosts) {
					w := want[hosts[j]]
					if (g == nil) != (w == nil) {
						errs <- fmt.Sprintf("%s: concurrent ok=%v, want %v", hosts[j], g != nil, w != nil)
						return
					}
					if g != nil && g.Loc.Key() != w.Loc.Key() {
						errs <- fmt.Sprintf("%s: concurrent %v, want %v", hosts[j], g.Loc, w.Loc)
						return
					}
				}
			}
		}(g + 1)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestCacheCountersAndBound(t *testing.T) {
	ix := newTestIndex(t, Options{CacheSize: cacheShards}) // one entry per shard
	host := "100ge1-1.core1.sjc1.he.net"
	ix.Lookup(host)
	ix.Lookup(host)
	ix.Lookup(host)
	st := ix.Stats()
	if st.Lookups != 3 || st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Errorf("stats = %+v, want 3 lookups / 1 miss / 2 hits", st)
	}
	// Negative results are cached too.
	ix.Lookup("nope.example-no-convention.com")
	ix.Lookup("nope.example-no-convention.com")
	st = ix.Stats()
	if st.CacheHits != 3 {
		t.Errorf("negative result not cached: %+v", st)
	}
	// The cache stays bounded no matter how many distinct keys pass by.
	for i := 0; i < 40*cacheShards; i++ {
		ix.Lookup(fmt.Sprintf("100ge1-1.core1.sjc1.host%d.example.org", i))
	}
	if n := ix.cache.len(); n > cacheShards {
		t.Errorf("cache holds %d entries, bound is %d", n, cacheShards)
	}
}

func TestCacheDisabled(t *testing.T) {
	ix := newTestIndex(t, Options{CacheSize: -1})
	host := "100ge1-1.core1.sjc1.he.net"
	ix.Lookup(host)
	ix.Lookup(host)
	st := ix.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("disabled cache still counting: %+v", st)
	}
	if st.Matched != 2 {
		t.Errorf("matched = %d, want 2", st.Matched)
	}
}

func TestStatsBySuffixAndClass(t *testing.T) {
	ix := newTestIndex(t, Options{CacheSize: -1})
	ix.Lookup("100ge1-1.core1.sjc1.he.net")
	ix.Lookup("100ge1-1.core1.sjc1.he.net")
	ix.Lookup("pos-0.munich0.de.alter.net")
	ix.Lookup("unmatched.example-no-convention.com")
	st := ix.Stats()
	if st.BySuffix["he.net"] != 2 || st.BySuffix["alter.net"] != 1 {
		t.Errorf("BySuffix = %v", st.BySuffix)
	}
	if st.Unmatched != 1 {
		t.Errorf("Unmatched = %d", st.Unmatched)
	}
	if st.Lookups != 4 || st.Lookups != st.Matched+st.Unmatched {
		t.Errorf("Lookups = %d, want 4 = Matched %d + Unmatched %d", st.Lookups, st.Matched, st.Unmatched)
	}
	total := uint64(0)
	for _, n := range st.ByClass {
		total += n
	}
	if total != st.Matched {
		t.Errorf("ByClass sums to %d, Matched = %d", total, st.Matched)
	}
	total = 0
	for _, n := range st.BySuffix {
		total += n
	}
	if total != st.Matched {
		t.Errorf("BySuffix sums to %d, Matched = %d", total, st.Matched)
	}
}

func TestUsableOnly(t *testing.T) {
	res, dict, list := learnFixture(t)
	all, err := New(res, Options{Dict: dict, PSL: list})
	if err != nil {
		t.Fatal(err)
	}
	usable, err := New(res, Options{Dict: dict, PSL: list, UsableOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(res.UsableNCs()); usable.Len() != want {
		t.Errorf("usable-only index has %d conventions, want %d", usable.Len(), want)
	}
	if all.Len() != len(res.NCs) {
		t.Errorf("full index has %d conventions, want %d", all.Len(), len(res.NCs))
	}
}

func TestSuffixesSortedAndConvention(t *testing.T) {
	ix := newTestIndex(t, Options{})
	suffixes := ix.Suffixes()
	for i := 1; i < len(suffixes); i++ {
		if suffixes[i-1] >= suffixes[i] {
			t.Fatalf("suffixes not sorted: %v", suffixes)
		}
	}
	if ix.Convention("he.net") == nil {
		t.Error("Convention(he.net) = nil")
	}
	if ix.Convention("example-no-convention.com") != nil {
		t.Error("Convention of unknown suffix should be nil")
	}
}

// TestNewRejectsUncompilableRegex: compilation failures surface at build
// time, never at request time.
func TestNewRejectsUncompilableRegex(t *testing.T) {
	// regexp rejects repeat counts above 1000, so this renders but does
	// not compile.
	bad := rex.New(geodict.HintIATA,
		rex.Component{Kind: rex.KindAlphaFixed, N: 100000, Capture: true, Role: rex.RoleHint})
	res := &core.Result{NCs: map[string]*core.NamingConvention{
		"bad.net": {Suffix: "bad.net", Regexes: []*rex.Regex{bad}},
	}}
	_, dict, list := learnFixture(t)
	if _, err := New(res, Options{Dict: dict, PSL: list}); err == nil {
		t.Fatal("New accepted a result with an uncompilable regex")
	}
}

func TestNewNilResult(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("New(nil) should error")
	}
}
