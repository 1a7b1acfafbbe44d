package geodict

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"hoiho/internal/geo"
)

func TestDefaultLoads(t *testing.T) {
	d, err := Default()
	if err != nil {
		t.Fatalf("Default() error: %v", err)
	}
	s := d.Stats()
	if s.Airports < 200 {
		t.Errorf("airports = %d, want >= 200", s.Airports)
	}
	if s.Places < 250 {
		t.Errorf("places = %d, want >= 250", s.Places)
	}
	if s.Locodes < 150 {
		t.Errorf("locodes = %d, want >= 150", s.Locodes)
	}
	if s.CLLIs < 120 {
		t.Errorf("cllis = %d, want >= 120", s.CLLIs)
	}
	if s.Facilities < 40 {
		t.Errorf("facilities = %d, want >= 40", s.Facilities)
	}
	if s.Countries < 180 {
		t.Errorf("countries = %d, want >= 180", s.Countries)
	}
	if s.States < 70 {
		t.Errorf("states = %d, want >= 70", s.States)
	}
}

func TestIATALookup(t *testing.T) {
	d := MustDefault()
	// The "ash" collision the paper hinges on: the IATA dictionary maps it
	// to Nashua, NH, not Ashburn, VA.
	as := d.IATA("ash")
	if len(as) != 1 {
		t.Fatalf("IATA(ash) = %d entries, want 1", len(as))
	}
	if as[0].Loc.City != "nashua" || as[0].Loc.Region != "nh" {
		t.Errorf("IATA(ash) = %s, want nashua NH", as[0].Loc.String())
	}
	if got := d.IATA("LHR"); len(got) != 1 || got[0].Loc.City != "london" {
		t.Errorf("IATA(LHR) should be case-insensitive and map to london")
	}
	if d.IATA("zzz") != nil {
		t.Error("IATA(zzz) should be nil")
	}
	// Collision codes the paper cites as chance matches.
	for _, code := range []string{"gig", "eth", "cpe", "act", "cix", "lvs", "tor", "tok", "ldn", "ntt"} {
		if d.IATA(code) == nil {
			t.Errorf("collision code %q missing from IATA dictionary", code)
		}
	}
}

func TestICAOLookup(t *testing.T) {
	d := MustDefault()
	a := d.ICAO("egll")
	if a == nil || a.IATA != "lhr" {
		t.Fatalf("ICAO(egll) = %+v, want lhr", a)
	}
	if prg := d.ICAO("lkpr"); prg == nil || prg.Loc.City != "prague" {
		t.Error("ICAO(lkpr) should be prague")
	}
	if lax := d.ICAO("klax"); lax == nil || lax.Loc.City != "los angeles" {
		t.Error("ICAO(klax) should be los angeles")
	}
}

func TestLocodeLookup(t *testing.T) {
	d := MustDefault()
	c := d.Locode("usqas")
	if c == nil || c.Loc.City != "ashburn" {
		t.Fatalf("Locode(usqas) = %+v, want ashburn", c)
	}
	// jptky is Tokuyama in the real dictionary (operators override it to
	// mean Tokyo — that's stage-4 learning, not the dictionary).
	if c := d.Locode("jptky"); c == nil || c.Loc.City != "tokuyama" {
		t.Errorf("Locode(jptky) should be tokuyama")
	}
	if c := d.Locode("gblon"); c == nil || c.Loc.City != "london" || c.Loc.Country != "gb" {
		t.Errorf("Locode(gblon) should be london gb")
	}
}

func TestCLLILookup(t *testing.T) {
	d := MustDefault()
	cases := map[string]string{
		"asbnva": "ashburn",
		"snjsca": "san jose",
		"rcmdva": "richmond",
		"nwrknj": "newark",
		"londen": "london",
		"kslrml": "kuala selangor",
		"milnit": "milan",
	}
	for prefix, city := range cases {
		c := d.CLLI(prefix)
		if c == nil {
			t.Errorf("CLLI(%s) missing", prefix)
			continue
		}
		if c.Loc.City != city {
			t.Errorf("CLLI(%s) = %s, want %s", prefix, c.Loc.City, city)
		}
	}
	// NTT's made-up Milan code must NOT be in the dictionary.
	if d.CLLI("mlanit") != nil {
		t.Error("mlanit is an operator-invented code and must not be in the dictionary")
	}
}

func TestPlaceLookupAmbiguity(t *testing.T) {
	d := MustDefault()
	ws := d.Place("washington")
	if len(ws) < 5 {
		t.Errorf("Place(washington) = %d entries, want several (paper: 10)", len(ws))
	}
	ash := d.Place("ashburn")
	if len(ash) != 2 {
		t.Errorf("Place(ashburn) = %d entries, want 2 (paper: 2)", len(ash))
	}
	// Multi-word names match in normalized form.
	if len(d.Place("fortcollins")) != 1 {
		t.Error("Place(fortcollins) should match fort collins")
	}
	if len(d.Place("Fort Collins")) != 1 {
		t.Error("Place(Fort Collins) should normalize")
	}
	if d.Place("atlantis") != nil {
		t.Error("Place(atlantis) should be nil")
	}
}

func TestFacilityByAddress(t *testing.T) {
	d := MustDefault()
	fs := d.FacilityByAddress("529bryant")
	if len(fs) != 1 || fs[0].Loc.City != "palo alto" {
		t.Fatalf("FacilityByAddress(529bryant) = %v", fs)
	}
	if fs := d.FacilityByAddress("1118th"); len(fs) != 1 || fs[0].Loc.City != "new york" {
		t.Errorf("FacilityByAddress(1118th) = %v", fs)
	}
	// Tokens without digits or too short must not match (avoids matching
	// every word in an address).
	if d.FacilityByAddress("ave") != nil {
		t.Error("short token should not match")
	}
	if d.FacilityByAddress("filigree") != nil {
		t.Error("token without digit should not match an address")
	}
}

// TestPlacesSortedOnce: the first Places calls, four at once on a fresh
// dictionary, share one sorted list; later calls allocate nothing; and
// a place added afterwards shows up, in key order, in the next call.
func TestPlacesSortedOnce(t *testing.T) {
	d, err := loadEmbedded()
	if err != nil {
		t.Fatal(err)
	}
	lists := make([][]*Location, 4)
	var wg sync.WaitGroup
	for i := range lists {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lists[i] = d.Places()
		}(i)
	}
	wg.Wait()
	sorted := func(l []*Location) bool {
		return sort.SliceIsSorted(l, func(i, j int) bool { return l[i].Key() < l[j].Key() })
	}
	if len(lists[0]) != d.Stats().Places || !sorted(lists[0]) {
		t.Fatalf("Places: %d places, sorted %v; want %d sorted", len(lists[0]), sorted(lists[0]), d.Stats().Places)
	}
	for i, l := range lists {
		if len(l) != len(lists[0]) || &l[0] != &lists[0][0] {
			t.Errorf("caller %d got a list of its own", i)
		}
	}
	if n := testing.AllocsPerRun(10, func() { d.Places() }); n != 0 {
		t.Errorf("Places allocates %.0f times after the first call, want 0", n)
	}

	added := Location{City: "middleton", Region: "wi", Country: "us"}
	if err := d.addPlace(added); err != nil {
		t.Fatal(err)
	}
	got := d.Places()
	if len(got) != len(lists[0])+1 || !sorted(got) {
		t.Fatalf("after addPlace: %d places, sorted %v; want %d sorted", len(got), sorted(got), len(lists[0])+1)
	}
	found := false
	for _, l := range got {
		found = found || l.SameCity(&added)
	}
	if !found {
		t.Errorf("Places misses %s, added after the first call", added.Key())
	}
}

func TestHasFacility(t *testing.T) {
	d := MustDefault()
	if !d.HasFacility("ashburn", "va", "us") {
		t.Error("ashburn should have a facility")
	}
	if !d.HasFacility("milan", "", "it") {
		t.Error("milan should have a facility")
	}
	if d.HasFacility("nashua", "nh", "us") {
		t.Error("nashua should not have a facility")
	}
}

func TestCountryCode(t *testing.T) {
	d := MustDefault()
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"us", "us", true},
		{"US", "us", true},
		{"gb", "gb", true},
		{"uk", "gb", true}, // paper: UK ≡ GB
		{"aus", "au", true},
		{"usa", "us", true},
		{"germany", "de", true},
		{"United States", "us", true},
		{"xx", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		got, ok := d.CountryCode(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("CountryCode(%q) = %q,%v want %q,%v", c.in, got, ok, c.want, c.ok)
		}
	}
	if !d.CountryEquivalent("uk", "gb") {
		t.Error("uk should be equivalent to gb")
	}
	if d.CountryEquivalent("uk", "us") {
		t.Error("uk should not be equivalent to us")
	}
}

func TestStates(t *testing.T) {
	d := MustDefault()
	if n, ok := d.StateName("us", "va"); !ok || n != "virginia" {
		t.Errorf("StateName(us,va) = %q,%v", n, ok)
	}
	if _, ok := d.StateName("us", "zz"); ok {
		t.Error("StateName(us,zz) should not exist")
	}
	if !d.StateEquivalent("va", "us", "va") {
		t.Error("va should match va")
	}
	if !d.StateEquivalent("virginia", "us", "va") {
		t.Error("virginia should match va by name")
	}
	if !d.StateEquivalent("eng", "gb", "en") {
		t.Error("eng should match en (both England)")
	}
	if d.StateEquivalent("tx", "us", "va") {
		t.Error("tx should not match va")
	}
	if d.StateEquivalent("queensland", "au", "nsw") {
		t.Error("queensland should not match nsw")
	}
	if !d.StateEquivalent("qld", "au", "qld") {
		t.Error("qld should match qld")
	}
}

// TestLocations: the one lookup returns the dictionary's own locations,
// not copies, in a slice the caller may change.
func TestLocations(t *testing.T) {
	d := MustDefault()
	egll := d.ICAO("egll")
	if got := d.Locations(HintICAO, "EGLL"); len(got) != 1 || got[0] != &egll.Loc {
		t.Errorf("Locations(icao, EGLL) = %v, want the record's own location", got)
	}
	ash := d.Locations(HintIATA, "ash")
	if len(ash) == 0 || ash[0] != &d.IATA("ash")[0].Loc {
		t.Fatalf("Locations(iata, ash) = %v", ash)
	}
	ash[0] = nil
	if again := d.Locations(HintIATA, "ash"); again[0] == nil {
		t.Error("changing a returned slice changed the next lookup")
	}
	places := d.Locations(HintPlace, "Washington")
	places[0] = nil
	if d.Place("washington")[0] == nil {
		t.Error("changing a returned place slice changed the dictionary")
	}
	fresh := newDictionary()
	for _, city := range []string{"first", "second"} {
		if err := fresh.addAirport("xyz", "", Location{City: city, Country: "us"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fresh.Locations(HintIATA, "xyz"); len(got) != 2 || got[0].City != "first" || got[1].City != "second" {
		t.Errorf("Locations(iata, xyz) = %v, want both airports in registration order", got)
	}
	for _, ht := range []HintType{HintNone, HintCountry, HintState, HintType(99)} {
		if got := d.Locations(ht, "us"); got != nil {
			t.Errorf("Locations(%s, us) = %v, want nil", ht, got)
		}
	}
}

func TestAgrees(t *testing.T) {
	d := MustDefault()
	lhr := d.IATA("lhr")[0].Loc
	ash := d.Place("ashburn")[0]
	cases := []struct {
		loc            *Location
		country, state string
		want           bool
	}{
		{&lhr, "", "", true},
		{&lhr, "uk", "", true},
		{&lhr, "us", "", false},
		{ash, "us", "va", true},
		{ash, "", "virginia", true},
		{ash, "us", "tx", false},
		{ash, "ca", "va", false},
	}
	for _, c := range cases {
		if got := d.Agrees(c.loc, c.country, c.state); got != c.want {
			t.Errorf("Agrees(%s, %q, %q) = %v, want %v", c.loc, c.country, c.state, got, c.want)
		}
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"Fort Collins":      "fortcollins",
		"St. Louis":         "stlouis",
		"111 8th Ave":       "1118thave",
		"SÃO":               "so", // non-ASCII dropped
		"new-york":          "newyork",
		"":                  "",
		"Frankfurt am Main": "frankfurtammain",
	}
	for in, want := range cases {
		if got := NormalizeName(in); got != want {
			t.Errorf("NormalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeNameProperty(t *testing.T) {
	f := func(s string) bool {
		n := NormalizeName(s)
		// Idempotent and only lower-case alphanumerics.
		if NormalizeName(n) != n {
			return false
		}
		for _, r := range n {
			if !(r >= 'a' && r <= 'z') && !(r >= '0' && r <= '9') {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitWords(t *testing.T) {
	got := SplitWords("New York")
	if len(got) != 2 || got[0] != "new" || got[1] != "york" {
		t.Errorf("SplitWords(New York) = %v", got)
	}
	if got := SplitWords("st-louis"); len(got) != 2 {
		t.Errorf("SplitWords(st-louis) = %v", got)
	}
	if got := SplitWords(""); len(got) != 0 {
		t.Errorf("SplitWords('') = %v", got)
	}
}

func TestLocationString(t *testing.T) {
	l := Location{City: "ashburn", Region: "va", Country: "us"}
	if got := l.String(); got != "Ashburn, VA, US" {
		t.Errorf("String() = %q", got)
	}
	l2 := Location{City: "london", Country: "gb"}
	if got := l2.String(); got != "London, GB" {
		t.Errorf("String() = %q", got)
	}
}

func TestHintTypeString(t *testing.T) {
	for ht, want := range map[HintType]string{
		HintNone: "none", HintIATA: "iata", HintICAO: "icao",
		HintLocode: "locode", HintCLLI: "clli", HintPlace: "place",
		HintFacility: "facility", HintCountry: "country", HintState: "state",
		HintState + 1: "hinttype(9)", -1: "hinttype(-1)",
	} {
		if got := ht.String(); got != want {
			t.Errorf("HintType(%d).String() = %q, want %q", int(ht), got, want)
		}
	}
}

func TestLocationKeyUnique(t *testing.T) {
	a := Location{City: "london", Country: "gb"}
	b := Location{City: "london", Region: "on", Country: "ca"}
	if a.Key() == b.Key() {
		t.Error("different cities must have different keys")
	}
}

func TestBuilderValidation(t *testing.T) {
	d := newDictionary()
	loc := Location{City: "x", Country: "us", Pos: geo.LatLong{Lat: 1, Long: 2}}
	if err := d.addAirport("toolong", "", loc); err == nil {
		t.Error("addAirport should reject non-3-letter codes")
	}
	if err := d.addAirport("abc", "bad", loc); err == nil {
		t.Error("addAirport should reject non-4-letter ICAO")
	}
	if err := d.addAirport("abc", "kabc", loc); err != nil {
		t.Errorf("addAirport: %v", err)
	}
	if err := d.addAirport("abc", "", loc); err == nil {
		t.Error("duplicate airport should be rejected")
	}
	if err := d.addLocode("usx", loc); err == nil {
		t.Error("addLocode should reject short codes")
	}
	if err := d.addLocode("frxyz", loc); err == nil {
		t.Error("addLocode should reject country mismatch")
	}
	if err := d.addLocode("usxyz", loc); err != nil {
		t.Errorf("addLocode: %v", err)
	}
	if err := d.addLocode("usxyz", loc); err == nil {
		t.Error("duplicate LOCODE should be rejected")
	}
	if err := d.addCLLI("abcd", loc); err == nil {
		t.Error("addCLLI should reject non-6-letter prefixes")
	}
	if err := d.addCLLI("abcdef", loc); err != nil {
		t.Errorf("addCLLI: %v", err)
	}
	if err := d.addCLLI("abcdef", loc); err == nil {
		t.Error("duplicate CLLI should be rejected")
	}
	if err := d.addPlace(Location{}); err == nil {
		t.Error("addPlace should reject empty city")
	}
	if err := d.addCountry("usa", "", "x"); err == nil {
		t.Error("addCountry should reject non-2-letter codes")
	}
	if err := d.addState("", "x", "y"); err == nil {
		t.Error("addState should reject empty country")
	}
}

func TestAirportsSorted(t *testing.T) {
	d := MustDefault()
	as := d.Airports()
	for i := 1; i < len(as); i++ {
		if as[i-1].IATA > as[i].IATA {
			t.Fatalf("Airports() not sorted at %d: %s > %s", i, as[i-1].IATA, as[i].IATA)
		}
	}
}

func TestLocodeCountryPrefixInvariant(t *testing.T) {
	d := MustDefault()
	for _, c := range d.Locodes() {
		if c.Loc.Country != "" && !strings.HasPrefix(c.Code, c.Loc.Country) {
			t.Errorf("LOCODE %s does not begin with its country %s", c.Code, c.Loc.Country)
		}
	}
}

func TestCLLIsHaveCoordinates(t *testing.T) {
	d := MustDefault()
	for _, c := range d.CLLIs() {
		if c.Loc.Pos.Lat == 0 && c.Loc.Pos.Long == 0 {
			t.Errorf("CLLI %s has no coordinates", c.Code)
		}
	}
}

func TestPaperExampleDistances(t *testing.T) {
	// Dictionary coordinates should reproduce the paper's geometry:
	// Ashburn VA and Nashua NH are several hundred km apart, which is
	// what makes the "ash" collision RTT-detectable.
	d := MustDefault()
	ashburn := d.Place("ashburn")[0]
	nashua := d.Place("nashua")[0]
	km := geo.DistanceKm(ashburn.Pos, nashua.Pos)
	if km < 500 || km > 800 {
		t.Errorf("ashburn-nashua distance = %.0f km, want ~650", km)
	}
}
