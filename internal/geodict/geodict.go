// Package geodict implements the reference location dictionary of the
// Hoiho geolocation method (paper §5.1.1): IATA and ICAO airport codes,
// UN/LOCODEs, CLLI prefixes, city and town names, colocation facilities,
// and ISO-3166 country and state codes — each annotated with lat/long
// coordinates so that delay measurements can test whether a candidate
// geohint is physically plausible.
//
// The embedded datasets are curated subsets of the public sources the
// paper uses (OurAirports, GeoNames, UN/LOCODE, PeeringDB) plus a
// rule-compatible substitute for the licensed iconectiv CLLI table. A
// Builder allows programmatic extension, which the synthetic topology
// generator uses to register additional codes.
package geodict

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hoiho/internal/geo"
)

// HintType identifies the dictionary that interprets a geohint.
type HintType int

// The geohint types the paper's method distinguishes (§2).
const (
	HintNone     HintType = iota
	HintIATA              // 3-letter airport / metropolitan-area code
	HintICAO              // 4-letter structured airport code
	HintLocode            // 5-letter UN/LOCODE (country + location)
	HintCLLI              // 6-letter CLLI prefix (city + state/country)
	HintPlace             // city or town name
	HintFacility          // facility name or street address
	HintCountry           // country name or ISO-3166 code
	HintState             // state/province name or code
)

var hintNames = [...]string{
	HintNone:     "none",
	HintIATA:     "iata",
	HintICAO:     "icao",
	HintLocode:   "locode",
	HintCLLI:     "clli",
	HintPlace:    "place",
	HintFacility: "facility",
	HintCountry:  "country",
	HintState:    "state",
}

// String returns the lower-case name of the hint type. Every located
// answer names its type, so this is an array index, not a map probe.
func (t HintType) String() string {
	if t >= 0 && int(t) < len(hintNames) {
		return hintNames[t]
	}
	return fmt.Sprintf("hinttype(%d)", int(t))
}

// Location is a geographic place a geohint can resolve to.
type Location struct {
	City       string // lower-case city or town name ("ashburn")
	Region     string // state/province code where applicable ("va")
	Country    string // ISO-3166 alpha-2 country code ("us")
	Pos        geo.LatLong
	Population int // resident population; 0 when unknown
}

// Key returns a canonical "city|region|country" identity string.
func (l *Location) Key() string {
	return l.City + "|" + l.Region + "|" + l.Country
}

// String renders the location in "City, REGION, CC" form.
func (l *Location) String() string {
	parts := []string{strings.Title(l.City)} //nolint:staticcheck // ASCII place names only
	if l.Region != "" {
		parts = append(parts, strings.ToUpper(l.Region))
	}
	parts = append(parts, strings.ToUpper(l.Country))
	return strings.Join(parts, ", ")
}

// SameCity reports whether two locations denote the same city.
func (l *Location) SameCity(o *Location) bool {
	return l != nil && o != nil && l.City == o.City && l.Region == o.Region && l.Country == o.Country
}

// Facility is a colocation facility record in the shape of PeeringDB.
type Facility struct {
	Name    string // facility name ("equinix dc1")
	Address string // street address ("21715 filigree ct")
	Loc     Location

	addrKey string // NormalizeName(Address), set by AddFacility
}

// Airport is an airport (or IATA metropolitan-area) record.
type Airport struct {
	IATA string // 3-letter code; may be a metro city code
	ICAO string // 4-letter code; empty for metro codes
	Loc  Location
}

// Code is a coded dictionary entry (LOCODE or CLLI prefix).
type Code struct {
	Code string
	Loc  Location
}

// Dictionary is the assembled reference location dictionary.
type Dictionary struct {
	iata       map[string][]*Airport
	icao       map[string]*Airport
	locode     map[string]*Code
	clli       map[string]*Code
	places     map[string][]*Location // normalized name -> locations
	facilities []*Facility
	countries  map[string]string            // alpha2 -> name
	alpha3     map[string]string            // alpha3 -> alpha2
	countryIx  map[string]string            // normalized name -> alpha2
	states     map[string]map[string]string // country -> code -> name

	// placeList is every place sorted by key, built by the first Places
	// call, which learning workers may make at the same time, and reset
	// by AddPlace.
	placeMu   sync.Mutex
	placeList []*Location
}

// NewDictionary returns an empty dictionary ready for population via a
// Builder. Most callers want Default instead.
func NewDictionary() *Dictionary {
	return &Dictionary{
		iata:      make(map[string][]*Airport),
		icao:      make(map[string]*Airport),
		locode:    make(map[string]*Code),
		clli:      make(map[string]*Code),
		places:    make(map[string][]*Location),
		countries: make(map[string]string),
		alpha3:    make(map[string]string),
		countryIx: make(map[string]string),
		states:    make(map[string]map[string]string),
	}
}

// IATA returns the airports registered under a 3-letter code, or nil.
func (d *Dictionary) IATA(code string) []*Airport { return d.iata[strings.ToLower(code)] }

// ICAO returns the airport registered under a 4-letter ICAO code, or nil.
func (d *Dictionary) ICAO(code string) *Airport { return d.icao[strings.ToLower(code)] }

// Locode returns the location registered under a 5-letter LOCODE, or nil.
func (d *Dictionary) Locode(code string) *Code { return d.locode[strings.ToLower(code)] }

// CLLI returns the location registered under a 6-letter CLLI prefix.
func (d *Dictionary) CLLI(prefix string) *Code { return d.clli[strings.ToLower(prefix)] }

// Place returns the locations whose normalized name matches name.
func (d *Dictionary) Place(name string) []*Location { return d.places[NormalizeName(name)] }

// Locations returns the interpretations of s in the dictionary of hint
// type t, in dictionary order, or nil when there are none or t has no
// location dictionary. Learning, core.Decide and the baselines read
// every geohint through it. The slice belongs to the caller, but the
// locations are the dictionary's own and must not be modified.
func (d *Dictionary) Locations(t HintType, s string) []*Location {
	var out []*Location
	switch t {
	case HintIATA:
		for _, a := range d.IATA(s) {
			out = append(out, &a.Loc)
		}
	case HintICAO:
		if a := d.ICAO(s); a != nil {
			out = append(out, &a.Loc)
		}
	case HintLocode:
		if c := d.Locode(s); c != nil {
			out = append(out, &c.Loc)
		}
	case HintCLLI:
		if c := d.CLLI(s); c != nil {
			out = append(out, &c.Loc)
		}
	case HintPlace:
		out = append(out, d.Place(s)...)
	case HintFacility:
		for _, f := range d.FacilityByAddress(s) {
			out = append(out, &f.Loc)
		}
	}
	return out
}

// Agrees reports whether loc agrees with the country and state
// annotation tokens found beside a geohint ("lhr" with "uk"); an empty
// token constrains nothing.
func (d *Dictionary) Agrees(loc *Location, country, state string) bool {
	return (country == "" || d.CountryEquivalent(country, loc.Country)) &&
		(state == "" || d.StateEquivalent(state, loc.Country, loc.Region))
}

// Facilities returns all facility records.
func (d *Dictionary) Facilities() []*Facility { return d.facilities }

// FacilityByAddress returns facilities whose normalized street address
// begins with the normalized token (e.g. "529bryant" matches the record
// for "529 bryant st"). Tokens shorter than 4 characters never match.
func (d *Dictionary) FacilityByAddress(token string) []*Facility {
	tok := NormalizeName(token)
	if len(tok) < 4 || !containsDigit(tok) {
		return nil
	}
	var out []*Facility
	for _, f := range d.facilities {
		if strings.HasPrefix(f.addrKey, tok) {
			out = append(out, f)
		}
	}
	return out
}

// HasFacility reports whether any facility is present in the given city.
func (d *Dictionary) HasFacility(city, region, country string) bool {
	for _, f := range d.facilities {
		if f.Loc.City == city && f.Loc.Country == country &&
			(region == "" || f.Loc.Region == "" || f.Loc.Region == region) {
			return true
		}
	}
	return false
}

// CountryName returns the name for an alpha-2 code, and whether it exists.
func (d *Dictionary) CountryName(alpha2 string) (string, bool) {
	n, ok := d.countries[strings.ToLower(alpha2)]
	return n, ok
}

// CountryCode canonicalises a country token — an alpha-2 code, alpha-3
// code, common alias ("uk"), or full name — to its ISO-3166 alpha-2 code.
func (d *Dictionary) CountryCode(token string) (string, bool) {
	t := strings.ToLower(strings.TrimSpace(token))
	if alias, ok := countryAliases[t]; ok {
		t = alias
	}
	if _, ok := d.countries[t]; ok {
		return t, true
	}
	if a2, ok := d.alpha3[t]; ok {
		return a2, true
	}
	if a2, ok := d.countryIx[NormalizeName(t)]; ok {
		return a2, true
	}
	return "", false
}

// CountryEquivalent reports whether a token found in a hostname denotes
// the ISO-3166 alpha-2 country — e.g. "uk" ≡ "gb" (paper §5.2).
func (d *Dictionary) CountryEquivalent(token, alpha2 string) bool {
	code, ok := d.CountryCode(token)
	return ok && code == strings.ToLower(alpha2)
}

// StateName resolves a state code within a country.
func (d *Dictionary) StateName(country, code string) (string, bool) {
	m := d.states[strings.ToLower(country)]
	if m == nil {
		return "", false
	}
	n, ok := m[strings.ToLower(code)]
	return n, ok
}

// StateEquivalent reports whether a token denotes the (country, region)
// state — matching either the code or the full name.
func (d *Dictionary) StateEquivalent(token, country, region string) bool {
	t := strings.ToLower(strings.TrimSpace(token))
	if t == strings.ToLower(region) {
		return true
	}
	if name, ok := d.StateName(country, region); ok {
		if NormalizeName(t) == NormalizeName(name) {
			return true
		}
		// The token may be an alternate code with the same name,
		// e.g. "eng" and "en" both denote England.
		if n2, ok := d.StateName(country, t); ok && NormalizeName(n2) == NormalizeName(name) {
			return true
		}
	}
	return false
}

// Airports returns every airport record, sorted by IATA code.
func (d *Dictionary) Airports() []*Airport {
	var out []*Airport
	for _, as := range d.iata {
		out = append(out, as...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IATA < out[j].IATA })
	return out
}

// Places returns every place record, sorted by key. The slice is
// sorted once and shared by every caller: it is read-only.
func (d *Dictionary) Places() []*Location {
	d.placeMu.Lock()
	defer d.placeMu.Unlock()
	if d.placeList == nil {
		var out []*Location
		for _, ls := range d.places {
			out = append(out, ls...)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
		d.placeList = out
	}
	return d.placeList
}

// Locodes returns every LOCODE record, sorted by code.
func (d *Dictionary) Locodes() []*Code {
	out := make([]*Code, 0, len(d.locode))
	for _, c := range d.locode {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// CLLIs returns every CLLI prefix record, sorted by prefix.
func (d *Dictionary) CLLIs() []*Code {
	out := make([]*Code, 0, len(d.clli))
	for _, c := range d.clli {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// Stats summarises dictionary contents for reporting.
type Stats struct {
	Airports   int
	ICAOs      int
	Locodes    int
	CLLIs      int
	Places     int
	Facilities int
	Countries  int
	States     int
}

// Stats returns entry counts per dictionary.
func (d *Dictionary) Stats() Stats {
	var s Stats
	for _, as := range d.iata {
		s.Airports += len(as)
	}
	s.ICAOs = len(d.icao)
	s.Locodes = len(d.locode)
	s.CLLIs = len(d.clli)
	for _, ls := range d.places {
		s.Places += len(ls)
	}
	s.Facilities = len(d.facilities)
	s.Countries = len(d.countries)
	for _, m := range d.states {
		s.States += len(m)
	}
	return s
}

// countryAliases maps common non-ISO country tokens to alpha-2 codes.
var countryAliases = map[string]string{
	"uk": "gb", // the paper's GB≡UK equivalence
	"el": "gr",
}

func containsDigit(s string) bool {
	for _, r := range s {
		if r >= '0' && r <= '9' {
			return true
		}
	}
	return false
}
