package core

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"hoiho/internal/geo"
	"hoiho/internal/geodict"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
	"hoiho/internal/rtt"
)

// fixture assembles Inputs over a hand-built corpus with honest,
// deterministic RTTs (min-of-light * 1.25 + 1ms from every VP).
type fixture struct {
	t      *testing.T
	dict   *geodict.Dictionary
	list   *psl.List
	corpus *itdk.Corpus
	matrix *rtt.Matrix
	nextIP int
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	dict := geodict.MustDefault()
	vps := []*rtt.VP{
		vpAt(dict, "cgs-us", "college park", "md", "us"),
		vpAt(dict, "lon-gb", "london", "", "gb"),
		vpAt(dict, "zrh-ch", "zurich", "zh", "ch"),
		vpAt(dict, "tyo-jp", "tokyo", "", "jp"),
		vpAt(dict, "sjc-us", "san jose", "ca", "us"),
	}
	return &fixture{
		t:      t,
		dict:   dict,
		list:   psl.MustDefault(),
		corpus: itdk.NewCorpus("test", false),
		matrix: rtt.NewMatrix(vps),
	}
}

func vpAt(d *geodict.Dictionary, name, city, region, country string) *rtt.VP {
	for _, loc := range d.Place(city) {
		if loc.Region == region && loc.Country == country {
			return &rtt.VP{Name: name, City: city, Country: country, Pos: loc.Pos}
		}
	}
	panic("vpAt: unknown city " + city)
}

// place returns the dictionary location for a city triple.
func (f *fixture) place(city, region, country string) *geodict.Location {
	f.t.Helper()
	for _, loc := range f.dict.Place(city) {
		if loc.Region == region && loc.Country == country {
			return loc
		}
	}
	f.t.Fatalf("place %s/%s/%s not in dictionary", city, region, country)
	return nil
}

// addRouter creates a router at the given true location with one
// hostname, and records honest pings from every VP.
func (f *fixture) addRouter(id string, loc *geodict.Location, hostname string) {
	f.t.Helper()
	f.nextIP++
	addr := netip.MustParseAddr(fmt.Sprintf("192.0.2.%d", f.nextIP%250+1))
	if f.nextIP >= 250 {
		addr = netip.MustParseAddr(fmt.Sprintf("198.51.100.%d", f.nextIP%250+1))
	}
	r := &itdk.Router{
		ID:         id,
		Interfaces: []itdk.Interface{{Addr: addr, Hostname: hostname}},
		Truth: &itdk.GroundTruth{
			City: loc.City, Region: loc.Region, Country: loc.Country, Pos: loc.Pos,
		},
	}
	if err := f.corpus.Add(r); err != nil {
		f.t.Fatal(err)
	}
	for _, vp := range f.matrix.VPs() {
		rttMs := geo.MinRTTms(vp.Pos, loc.Pos)*1.25 + 1.0
		if err := f.matrix.SetPing(id, vp.Name, rtt.Sample{RTTms: rttMs, Method: rtt.ICMP}); err != nil {
			f.t.Fatal(err)
		}
	}
}

func (f *fixture) inputs() Inputs {
	return Inputs{Dict: f.dict, PSL: f.list, Corpus: f.corpus, RTT: f.matrix}
}

func TestTagZayoStyle(t *testing.T) {
	f := newFixture(t)
	london := f.place("london", "", "gb")
	f.addRouter("N1", london, "zayo-ntt.mpr1.lhr15.uk.zip.zayo.com")

	tg := &tagger{in: f.inputs()}
	group := f.corpus.GroupBySuffix(f.list)[0]
	tagged := tg.tag(group.Hosts[0])
	if tagged == nil {
		t.Fatal("tag returned nil")
	}
	var gotLHR, gotNTT bool
	for _, a := range tagged.Apparent {
		if a.Text == "lhr" && a.Type == geodict.HintIATA {
			gotLHR = true
			if a.Country != "uk" {
				t.Errorf("lhr tag should carry country uk, got %q", a.Country)
			}
		}
		if a.Text == "ntt" {
			gotNTT = true
		}
	}
	if !gotLHR {
		t.Errorf("lhr should be tagged; tags = %+v", tagged.Apparent)
	}
	if gotNTT {
		t.Error("ntt (Niuatoputapu, Tonga) must be rejected by the London VP's RTT")
	}
}

func TestTagRequiresRTT(t *testing.T) {
	f := newFixture(t)
	london := f.place("london", "", "gb")
	// Router with hostname but no RTT samples.
	r := &itdk.Router{ID: "N9", Interfaces: []itdk.Interface{{
		Addr: netip.MustParseAddr("203.0.113.9"), Hostname: "cr1.lhr1.example.net"}}}
	_ = f.corpus.Add(r)
	_ = london

	tg := &tagger{in: f.inputs()}
	group := f.corpus.GroupBySuffix(f.list)[0]
	tagged := tg.tag(group.Hosts[0])
	if tagged == nil || tagged.HasTags() {
		t.Errorf("router without RTT samples must not be tagged: %+v", tagged)
	}
}

func TestTagSplitCLLI(t *testing.T) {
	f := newFixture(t)
	sj := f.place("san jose", "ca", "us")
	f.addRouter("N1", sj, "ae2-0.agr2.snjs-ca.windstream.net")
	tg := &tagger{in: f.inputs()}
	group := f.corpus.GroupBySuffix(f.list)[0]
	tagged := tg.tag(group.Hosts[0])
	found := false
	for _, a := range tagged.Apparent {
		if a.Type == geodict.HintCLLI && a.Text == "snjsca" && a.Run2Span >= 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("split CLLI snjs-ca not tagged: %+v", tagged.Apparent)
	}
}

func TestTagLongCLLIPrefix(t *testing.T) {
	f := newFixture(t)
	newark := f.place("newark", "nj", "us")
	f.addRouter("N1", newark, "0.csi1.nwrknjnb-mse01.alter.net")
	tg := &tagger{in: f.inputs()}
	group := f.corpus.GroupBySuffix(f.list)[0]
	tagged := tg.tag(group.Hosts[0])
	found := false
	for _, a := range tagged.Apparent {
		if a.Type == geodict.HintCLLI && a.Text == "nwrknj" && a.PrefixLen == 6 {
			found = true
		}
	}
	if !found {
		t.Errorf("long CLLI nwrknjnb not tagged as prefix: %+v", tagged.Apparent)
	}
}

func TestTagFacilityAddress(t *testing.T) {
	f := newFixture(t)
	pa := f.place("palo alto", "ca", "us")
	f.addRouter("N1", pa, "be-33.529bryant.ca.example.net")
	tg := &tagger{in: f.inputs()}
	group := f.corpus.GroupBySuffix(f.list)[0]
	tagged := tg.tag(group.Hosts[0])
	found := false
	for _, a := range tagged.Apparent {
		if a.Type == geodict.HintFacility && a.Text == "529bryant" {
			found = true
		}
	}
	if !found {
		t.Errorf("street address 529bryant not tagged: %+v", tagged.Apparent)
	}
}

// buildHENet populates the fixture with an he.net-style IATA convention,
// including the custom "ash" geohint for Ashburn (paper fig. 8a).
func buildHENet(f *fixture) {
	cities := []struct {
		code string
		loc  *geodict.Location
		n    int
	}{
		{"sjc", f.place("san jose", "ca", "us"), 3},
		{"fra", f.place("frankfurt am main", "he", "de"), 3},
		{"lhr", f.place("london", "", "gb"), 3},
		{"tyo", f.place("tokyo", "", "jp"), 3},
		{"ash", f.place("ashburn", "va", "us"), 4}, // custom hint
	}
	id := 0
	for _, c := range cities {
		for i := 1; i <= c.n; i++ {
			id++
			f.addRouter(fmt.Sprintf("N%d", id), c.loc,
				fmt.Sprintf("100ge%d-1.core%d.%s1.he.net", i, i, c.code))
		}
	}
}

func TestPipelineLearnsIATAConventionWithCustomHint(t *testing.T) {
	f := newFixture(t)
	buildHENet(f)

	nc, tagged, err := RunSuffix(f.inputs(), DefaultConfig(), "he.net")
	if err != nil {
		t.Fatal(err)
	}
	if nc == nil {
		t.Fatalf("no NC learned; %d tagged", len(tagged))
	}
	if !nc.Class.Usable() {
		t.Errorf("NC should be usable, got %s (tally %+v, ppv %.2f)",
			nc.Class, nc.Tally, nc.Tally.PPV())
	}
	if got := nc.HintTypes(); len(got) != 1 || got[0] != geodict.HintIATA {
		t.Errorf("hint types = %v, want [iata]", got)
	}
	// The custom "ash" hint must be learned as Ashburn, VA.
	var ash *LearnedHint
	for _, lh := range nc.Learned {
		if lh.Hint == "ash" {
			ash = lh
		}
	}
	if ash == nil {
		t.Fatalf("ash not learned; learned = %v, tally %+v", nc.Learned, nc.Tally)
	}
	if ash.Loc.City != "ashburn" || ash.Loc.Region != "va" {
		t.Errorf("ash learned as %s, want Ashburn VA", ash.Loc.String())
	}
	if !ash.Collide {
		t.Error("ash collides with the IATA code for Nashua and should be flagged")
	}
	// After learning, the convention should be good: every extraction is
	// a TP.
	if nc.Class != Good {
		t.Errorf("post-learning class = %s, want good (tally %+v)", nc.Class, nc.Tally)
	}
	if nc.Tally.FP != 0 {
		t.Errorf("post-learning FP = %d, want 0", nc.Tally.FP)
	}
}

func TestAblationNoLearnedHints(t *testing.T) {
	f := newFixture(t)
	buildHENet(f)
	cfg := DefaultConfig()
	cfg.LearnHints = false
	nc, _, err := RunSuffix(f.inputs(), cfg, "he.net")
	if err != nil {
		t.Fatal(err)
	}
	if nc == nil {
		t.Fatal("no NC learned")
	}
	if len(nc.Learned) != 0 {
		t.Error("ablation must not learn hints")
	}
	// Without learning, the ash routers stay FPs.
	if nc.Tally.FP == 0 {
		t.Errorf("ablation should leave FPs, tally = %+v", nc.Tally)
	}
}

func TestPipelineLearnsNTTCLLIConvention(t *testing.T) {
	f := newFixture(t)
	cities := []struct {
		clli, cc string
		loc      *geodict.Location
		n        int
	}{
		{"snjsca", "us", f.place("san jose", "ca", "us"), 3},
		{"sttlwa", "us", f.place("seattle", "wa", "us"), 3},
		{"nycmny", "us", f.place("new york", "ny", "us"), 3},
		{"londen", "uk", f.place("london", "", "gb"), 3},
		{"mlanit", "it", f.place("milan", "", "it"), 2}, // operator-invented
	}
	id := 0
	for _, c := range cities {
		for i := 1; i <= c.n; i++ {
			id++
			f.addRouter(fmt.Sprintf("N%d", id), c.loc,
				fmt.Sprintf("ae-%d.r%02d.%s%02d.%s.bb.gin.ntt.net", i, i, c.clli, i, c.cc))
		}
	}
	nc, _, err := RunSuffix(f.inputs(), DefaultConfig(), "ntt.net")
	if err != nil {
		t.Fatal(err)
	}
	if nc == nil {
		t.Fatal("no NC learned for ntt.net")
	}
	if !nc.AnnotatesCountry {
		t.Error("NTT convention should extract the country annotation")
	}
	var mlanit *LearnedHint
	for _, lh := range nc.Learned {
		if lh.Hint == "mlanit" {
			mlanit = lh
		}
	}
	if mlanit == nil {
		t.Fatalf("mlanit not learned; learned=%v tally=%+v class=%s", nc.Learned, nc.Tally, nc.Class)
	}
	if mlanit.Loc.City != "milan" || mlanit.Loc.Country != "it" {
		t.Errorf("mlanit learned as %s, want Milan IT", mlanit.Loc.String())
	}
	if mlanit.Collide {
		t.Error("mlanit is not in the CLLI dictionary, so no collision")
	}
	if nc.Class != Good {
		t.Errorf("class = %s, want good (tally %+v)", nc.Class, nc.Tally)
	}
}

func TestRunFullCorpus(t *testing.T) {
	f := newFixture(t)
	buildHENet(f)
	// A second suffix with a city-name convention.
	for i, c := range []struct {
		loc *geodict.Location
	}{
		{f.place("munich", "by", "de")},
		{f.place("stuttgart", "bw", "de")},
		{f.place("dresden", "sn", "de")},
		{f.place("hamburg", "hh", "de")},
	} {
		f.addRouter(fmt.Sprintf("M%d", i),
			c.loc, fmt.Sprintf("pos-%d.%s%d.de.alter.net", i, geodict.NormalizeName(c.loc.City), i))
	}
	res, err := Run(f.inputs(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.SuffixesWithGeohint != 2 {
		t.Errorf("SuffixesWithGeohint = %d, want 2", res.SuffixesWithGeohint)
	}
	if len(res.NCs) != 2 {
		t.Fatalf("NCs = %d, want 2 (%v)", len(res.NCs), res.NCs)
	}
	alter := res.NCs["alter.net"]
	if alter == nil || !alter.Class.Usable() {
		t.Fatalf("alter.net NC missing or unusable: %+v", alter)
	}
	if got := alter.HintTypes(); len(got) != 1 || got[0] != geodict.HintPlace {
		t.Errorf("alter.net hint types = %v, want [place]", got)
	}
	if res.RoutersGeolocated == 0 || res.RoutersWithGeohint == 0 {
		t.Errorf("coverage counters zero: %+v", res)
	}
	if res.RoutersGeolocated > res.RoutersWithGeohint {
		t.Errorf("geolocated %d exceeds with-geohint %d",
			res.RoutersGeolocated, res.RoutersWithGeohint)
	}
	if len(res.UsableNCs()) == 0 {
		t.Error("expected usable NCs")
	}
}

func TestGeolocate(t *testing.T) {
	f := newFixture(t)
	buildHENet(f)
	nc, _, err := RunSuffix(f.inputs(), DefaultConfig(), "he.net")
	if err != nil || nc == nil {
		t.Fatalf("nc=%v err=%v", nc, err)
	}
	// A new hostname the pipeline never saw, using the learned hint.
	g, ok := Geolocate(nc, f.dict, "gcr-company.ve42.core9.ash1.he.net")
	if !ok {
		t.Fatal("geolocate failed")
	}
	if g.Loc.City != "ashburn" || !g.Learned {
		t.Errorf("geolocate(ash1) = %+v, want learned ashburn", g)
	}
	// A dictionary hint resolves without learning.
	g, ok = Geolocate(nc, f.dict, "te0-0-0.core1.sjc1.he.net")
	if !ok || g.Loc.City != "san jose" || g.Learned {
		t.Errorf("geolocate(sjc1) = %+v, ok=%v", g, ok)
	}
	// Non-matching hostname.
	if _, ok := Geolocate(nc, f.dict, "unrelated.example.org"); ok {
		t.Error("foreign hostname should not geolocate")
	}
	if _, ok := Geolocate(nil, f.dict, "x.he.net"); ok {
		t.Error("nil NC should not geolocate")
	}
}

// TestDecide drives each cause of the decision procedure over a
// two-regex convention: the first regex that matches decides, even when
// its geohint resolves to nothing and the second regex would locate.
func TestDecide(t *testing.T) {
	res, err := ReadConventions(strings.NewReader(`suffix he.net good tp=16 fp=0 fn=0 unk=0 hints=5
regex iata hint ^([a-z]{3})\..+\.he\.net$
regex iata hint ^.+\.([a-z]{3})\d+\.he\.net$
learned iata ash 39.0437 -77.4875 ashburn|va|us tp=4 fp=0 collide=false
`))
	if err != nil {
		t.Fatal(err)
	}
	nc, dict := res.NCs["he.net"], geodict.MustDefault()
	for _, tc := range []struct {
		nc         *NamingConvention
		host       string
		cause      Cause
		regex      int
		hint       string
		candidates int
	}{
		{nil, "x.he.net", CauseNoConvention, 0, "", 0},
		{nc, "unrelated.he.net", CauseNoMatch, 2, "", 0},
		{nc, "xxq.core1.sjc1.he.net", CauseUnresolved, 0, "xxq", 0}, // regex 1 would locate sjc
		{nc, "ge0.ve42.core9.ash1.he.net", CauseLearned, 1, "ash", 0},
		{nc, "te0.core1.sjc1.he.net", CauseDictionary, 1, "sjc", 1},
		{nc, "lhr.core1.sjc1.he.net", CauseDictionary, 0, "lhr", 1},
	} {
		d := Decide(tc.nc, dict, tc.host)
		if d.Cause != tc.cause || d.Regex != tc.regex || d.Extraction.Hint != tc.hint || d.Candidates != tc.candidates {
			t.Errorf("%s: cause=%d regex=%d hint=%q candidates=%d, want %d %d %q %d", tc.host,
				d.Cause, d.Regex, d.Extraction.Hint, d.Candidates, tc.cause, tc.regex, tc.hint, tc.candidates)
		}
		if (d.Learned != nil) != (tc.cause == CauseLearned) || (d.Loc != nil) != (tc.cause >= CauseLearned) {
			t.Errorf("%s: learned=%v loc=%v for cause %d", tc.host, d.Learned, d.Loc, d.Cause)
		}
		g, ok := Geolocate(tc.nc, dict, tc.host)
		if ok != (d.Loc != nil) || ok && (g.Loc.Key() != d.Loc.Key() || g.Learned != (d.Learned != nil) || g.Hint != tc.hint) {
			t.Errorf("%s: Geolocate %+v, %v disagrees with Decide %+v", tc.host, g, ok, d)
		}
	}
}

func TestTallyMath(t *testing.T) {
	tl := Tally{TP: 8, FP: 1, FN: 2, UNK: 1}
	if tl.ATP() != 4 {
		t.Errorf("ATP = %d, want 4", tl.ATP())
	}
	if ppv := tl.PPV(); ppv < 0.88 || ppv > 0.90 {
		t.Errorf("PPV = %f, want 8/9", ppv)
	}
	var zero Tally
	if zero.PPV() != 0 {
		t.Error("PPV of zero tally should be 0")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		t    Tally
		want Classification
	}{
		{Tally{TP: 10, UniqueHints: 3}, Good},
		{Tally{TP: 9, FP: 1, UniqueHints: 3}, Good},
		{Tally{TP: 8, FP: 2, UniqueHints: 3}, Promising},
		{Tally{TP: 5, FP: 5, UniqueHints: 3}, Poor},
		{Tally{TP: 10, UniqueHints: 2}, Poor}, // too few unique hints
	}
	for _, c := range cases {
		if got := Classify(c.t, GoodPPV); got != c.want {
			t.Errorf("Classify(%+v) = %s, want %s", c.t, got, c.want)
		}
	}
	if !Good.Usable() || !Promising.Usable() || Poor.Usable() {
		t.Error("usability flags wrong")
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomeNone: "-", OutcomeTP: "TP", OutcomeFP: "FP",
		OutcomeFN: "FN", OutcomeUNK: "UNK",
	} {
		if o.String() != want {
			t.Errorf("outcome %d = %q", o, o.String())
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Inputs{}, DefaultConfig()); err == nil {
		t.Error("incomplete inputs should error")
	}
	f := newFixture(t)
	if _, _, err := RunSuffix(f.inputs(), DefaultConfig(), "missing.net"); err == nil {
		t.Error("unknown suffix should error")
	}
}

// sparseFixture builds a fixture whose nearest vantage point (Atlanta)
// is close enough to rule out Nashua for the "ash" routers but too far
// to separate Ashburn VA from the other Ash* cities — the regime where
// stage 4's facility/population priors decide (paper figs. 8a and 11).
func sparseFixture(t *testing.T) *fixture {
	t.Helper()
	dict := geodict.MustDefault()
	vps := []*rtt.VP{
		vpAt(dict, "atl-us", "atlanta", "ga", "us"),
		vpAt(dict, "lon-gb", "london", "", "gb"),
		vpAt(dict, "tyo-jp", "tokyo", "", "jp"),
		vpAt(dict, "sjc-us", "san jose", "ca", "us"),
	}
	return &fixture{
		t: t, dict: dict, list: psl.MustDefault(),
		corpus: itdk.NewCorpus("sparse", false),
		matrix: rtt.NewMatrix(vps),
	}
}

func TestAblationRankingPriors(t *testing.T) {
	// With only distant VPs, several abbreviation-compatible east-coast
	// cities are RTT-consistent for the "ash" routers; the priors are
	// what select Ashburn, VA. Disabling them changes (and worsens) the
	// learned interpretation.
	run := func(facility, population bool) *LearnedHint {
		f := sparseFixture(t)
		buildHENet(f)
		cfg := DefaultConfig()
		cfg.LearnRankFacility = facility
		cfg.LearnRankPopulation = population
		nc, _, err := RunSuffix(f.inputs(), cfg, "he.net")
		if err != nil || nc == nil {
			t.Fatalf("nc=%v err=%v", nc, err)
		}
		for _, lh := range nc.Learned {
			if lh.Hint == "ash" {
				return lh
			}
		}
		return nil
	}
	withPriors := run(true, true)
	if withPriors == nil || withPriors.Loc.City != "ashburn" || withPriors.Loc.Region != "va" {
		t.Fatalf("with priors: ash = %v, want Ashburn VA", withPriors)
	}
	without := run(false, false)
	if without != nil && without.Loc.City == "ashburn" && without.Loc.Region == "va" {
		t.Errorf("priors disabled but ash still resolved to Ashburn VA — ablation has no effect")
	}
}

func TestConfigPPVThresholds(t *testing.T) {
	// Raising the good-PPV threshold to an impossible level demotes a
	// good convention to promising.
	f := newFixture(t)
	buildHENet(f)
	nc, _, err := RunSuffix(f.inputs(), DefaultConfig(), "he.net")
	if err != nil || nc == nil {
		t.Fatalf("nc=%v err=%v", nc, err)
	}
	if nc.Class != Good {
		t.Fatalf("he.net classified %s, want good", nc.Class)
	}
	if got := Classify(nc.Tally, 1.01); got != Promising {
		t.Errorf("an impossible good-PPV should classify promising, got %s", got)
	}
}

func TestConfigCongruenceThreshold(t *testing.T) {
	// Raising the no-annotation congruence requirement above the number
	// of ash routers suppresses the learned hint.
	f := newFixture(t)
	buildHENet(f)
	cfg := DefaultConfig()
	cfg.LearnCongruentNoCC = 10
	nc, _, err := RunSuffix(f.inputs(), cfg, "he.net")
	if err != nil || nc == nil {
		t.Fatalf("nc=%v err=%v", nc, err)
	}
	for _, lh := range nc.Learned {
		if lh.Hint == "ash" {
			t.Error("congruence threshold of 10 should suppress ash (only 4 routers)")
		}
	}
}
