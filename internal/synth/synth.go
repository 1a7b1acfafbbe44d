// Package synth generates synthetic Internet topology corpora in the
// shape of CAIDA's ITDK, substituting for the proprietary measurement
// infrastructure the paper used (see DESIGN.md §1). A generated World
// contains:
//
//   - operators (domain suffixes), each with a naming convention drawn
//     from the styles the paper documents (§2): IATA codes, CLLI
//     prefixes (whole or split), LOCODEs, city names, facility street
//     addresses — optionally annotated with state/country codes, with
//     configurable rates of operator-invented custom geohints, stale
//     hostnames, and convention-breaking noise;
//   - routers placed in real dictionary cities, with PTR hostnames
//     rendered from the operator's convention;
//   - a vantage-point set and a simulated probe campaign (ICMP/UDP/TCP,
//     min-of-three) producing the ping and traceroute RTT matrices,
//     including TCP-spoofing access routers;
//   - retained ground truth: each router's true location and each
//     custom geohint's true meaning, standing in for the operator
//     emails the paper validated against.
//
// All generation is driven by a seeded PRNG and fully deterministic.
package synth

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"hoiho/internal/abbrev"
	"hoiho/internal/core"
	"hoiho/internal/geodict"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
	"hoiho/internal/rtt"
)

// Style is a hostname convention family.
type Style int

// Convention styles observed in the wild (paper §2, fig. 6).
const (
	StyleIATA      Style = iota // cr1.lhr15.example.net
	StyleIATACC                 // mpr1.lhr15.uk.example.net
	StyleCLLI                   // r20.snjsca04.us.bb.example.net
	StyleSplitCLLI              // agr2.mtgm-al.example.net
	StyleLocode                 // core1.nlams2.example.net
	StyleCity                   // pos-1.munich3.de.example.net
	StyleCityState              // ae-1.dallas2.tx.us.example.net (the paper's xo.net form)
	StyleFacility               // be-33.529bryant.ca.example.net
	numStyles
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleIATA:
		return "iata"
	case StyleIATACC:
		return "iata+cc"
	case StyleCLLI:
		return "clli"
	case StyleSplitCLLI:
		return "split-clli"
	case StyleLocode:
		return "locode"
	case StyleCity:
		return "city"
	case StyleCityState:
		return "city+state"
	case StyleFacility:
		return "facility"
	}
	return fmt.Sprintf("style(%d)", int(s))
}

// Site is one operator presence: a city and the code the operator uses
// for it.
type Site struct {
	Loc    *geodict.Location
	Code   string // the embedded geohint ("lhr", "snjsca", "munich", ...)
	CC     string // country annotation token, when the style uses one
	Custom bool   // the code is operator-invented (not dictionary-consistent)
}

// OperatorSpec describes one operator's convention.
type OperatorSpec struct {
	Suffix          string
	Style           Style
	Sites           []Site
	RoutersPerSite  int     // mean routers per site
	CustomHintRate  float64 // fraction of sites given invented codes
	StaleRate       float64 // hostnames carrying another site's code
	ConsistencyRate float64 // fraction of hostnames following the convention
	HostnameRate    float64 // fraction of routers with PTR records
	// Sloppy operators embed their geohint at an unstable position,
	// drawing a different hostname template per router — the paper's
	// above.net/aorta.net cases that defeat regex learning.
	Sloppy bool
}

// World is a generated corpus with its measurement plane and retained
// ground truth.
type World struct {
	Name   string
	Corpus *itdk.Corpus
	Matrix *rtt.Matrix
	Dict   *geodict.Dictionary
	PSL    *psl.List
	Specs  []*OperatorSpec

	// TruthHints records the intended meaning of every embedded code:
	// suffix -> code -> location. Custom codes appear here with
	// Custom=true in their Site.
	TruthHints map[string]map[string]*geodict.Location

	// TruthRouter maps router ID to its true location.
	TruthRouter map[string]*geodict.Location

	// HintHostnames maps every hostname rendered from a convention
	// (i.e. known to carry a geohint, including stale ones) to its
	// suffix — the "hostnames we knew from operator feedback contained
	// geohints" set that figure 9 evaluates over.
	HintHostnames map[string]string

	// ASNs maps interconnect interface addresses to the customer ASN
	// embedded in their hostnames — the IP-to-AS ground truth for the
	// ASN-extraction capability.
	ASNs map[netip.Addr]uint32
}

// Inputs assembles the world into pipeline inputs.
func (w *World) Inputs() core.Inputs {
	return core.Inputs{Dict: w.Dict, PSL: w.PSL, Corpus: w.Corpus, RTT: w.Matrix}
}

// Params configures world generation.
type Params struct {
	Name      string
	IPv6      bool
	Seed      int64
	Operators int // operators with geohint conventions
	Tiny      int // tiny operators: 1-2 sites, too small to learn from
	Noise     int // operators with no geohints at all
	VPs       int
	SpoofVPs  int // VPs whose access router spoofs TCP resets
	// HostnameRate is the default fraction of routers with PTR records
	// (the paper: ~55% IPv4, ~16% IPv6).
	HostnameRate float64
	// AnonymousFrac is the fraction of the corpus made of routers with
	// no PTR records at all (networks that do not name infrastructure),
	// which drives the corpus-level hostname coverage toward the
	// paper's Table 1 rates.
	AnonymousFrac float64
	Delay         rtt.DelayModel
	// TracedVPsMax bounds how many VPs observe each router in
	// traceroute (the paper: 35.8% observed by just one VP).
	TracedVPsMax int
	// NoiseRouters is the mean router count per noise operator; noise
	// networks dominate the named-but-geohint-free population, which
	// sets the corpus-level apparent-geohint rate (paper Table 2).
	NoiseRouters int
}

// ITDKPreset returns parameters shaped like one of the paper's four
// ITDKs, scaled ~1000x down for laptop-scale runs. Valid names:
// "ipv4-aug2020", "ipv4-mar2021", "ipv6-nov2020", "ipv6-mar2021".
func ITDKPreset(name string) (Params, error) {
	switch name {
	case "ipv4-aug2020":
		return Params{Name: name, Seed: 20200801, Operators: 42, Noise: 30,
			Tiny: 40, VPs: 28, SpoofVPs: 2, HostnameRate: 0.55, AnonymousFrac: 0.35,
			Delay: rtt.DefaultDelayModel(), TracedVPsMax: 3, NoiseRouters: 45}, nil
	case "ipv4-mar2021":
		return Params{Name: name, Seed: 20210301, Operators: 41, Noise: 30,
			Tiny: 38, VPs: 26, SpoofVPs: 2, HostnameRate: 0.54, AnonymousFrac: 0.35,
			Delay: rtt.DefaultDelayModel(), TracedVPsMax: 3, NoiseRouters: 45}, nil
	case "ipv6-nov2020":
		p := Params{Name: name, IPv6: true, Seed: 20201101, Operators: 14,
			Tiny: 12, Noise: 8, VPs: 13, SpoofVPs: 1, HostnameRate: 0.15,
			AnonymousFrac: 0.6, Delay: rtt.DefaultDelayModel(), TracedVPsMax: 2,
			NoiseRouters: 14}
		p.Delay.RespondICMP = 0.40 // ~46% of IPv6 routers respond
		p.Delay.RespondUDP = 0.08
		p.Delay.RespondTCP = 0.10
		return p, nil
	case "ipv6-mar2021":
		p := Params{Name: name, IPv6: true, Seed: 20210302, Operators: 13,
			Tiny: 11, Noise: 8, VPs: 11, SpoofVPs: 1, HostnameRate: 0.16,
			AnonymousFrac: 0.6, Delay: rtt.DefaultDelayModel(), TracedVPsMax: 2,
			NoiseRouters: 14}
		p.Delay.RespondICMP = 0.38
		p.Delay.RespondUDP = 0.08
		p.Delay.RespondTCP = 0.10
		return p, nil
	}
	return Params{}, fmt.Errorf("synth: unknown preset %q", name)
}

// Generate builds a world from parameters.
func Generate(p Params) (*World, error) {
	dict, err := geodict.Default()
	if err != nil {
		return nil, err
	}
	list, err := psl.Default()
	if err != nil {
		return nil, err
	}
	if p.Operators <= 0 || p.VPs <= 0 {
		return nil, fmt.Errorf("synth: need operators and VPs")
	}
	if p.TracedVPsMax < 1 {
		p.TracedVPsMax = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := &generator{p: p, rng: rng, dict: dict, rev: buildReverse(dict)}

	w := &World{
		Name:          p.Name,
		Corpus:        itdk.NewCorpus(p.Name, p.IPv6),
		Dict:          dict,
		PSL:           list,
		TruthHints:    make(map[string]map[string]*geodict.Location),
		TruthRouter:   make(map[string]*geodict.Location),
		HintHostnames: make(map[string]string),
		ASNs:          make(map[netip.Addr]uint32),
	}

	// Vantage points at airport cities; the first SpoofVPs spoof TCP.
	vps := g.makeVPs(p.VPs, p.SpoofVPs)
	w.Matrix = rtt.NewMatrix(vps)

	// Operators.
	for i := 0; i < p.Operators; i++ {
		spec := g.makeOperator(i, p.HostnameRate)
		w.Specs = append(w.Specs, spec)
		g.emitOperator(w, spec)
	}
	// Tiny operators: one or two sites, a handful of routers — the long
	// tail of real suffixes, which dominates the paper's "poor" NC
	// classifications (too few unique hints to learn from).
	for i := 0; i < p.Tiny; i++ {
		spec := g.makeTinyOperator(i, p.HostnameRate)
		w.Specs = append(w.Specs, spec)
		g.emitOperator(w, spec)
	}
	noiseRouters := p.NoiseRouters
	if noiseRouters < 1 {
		noiseRouters = 8
	}
	for i := 0; i < p.Noise; i++ {
		g.emitNoiseOperator(w, i, p.HostnameRate, noiseRouters)
	}
	if p.AnonymousFrac > 0 && p.AnonymousFrac < 1 {
		named := w.Corpus.Len()
		extra := int(float64(named) * p.AnonymousFrac / (1 - p.AnonymousFrac))
		g.emitAnonymous(w, extra)
	}

	// Measurement campaign.
	g.measure(w)
	return w, nil
}

// CleanSpoofers applies the paper's hygiene step: detect VPs spoofing
// TCP resets and drop their TCP samples. Returns the flagged VP names.
func (w *World) CleanSpoofers() []string {
	spoofers := w.Matrix.DetectTCPSpoofers(20)
	w.Matrix.DropTCPFrom(spoofers)
	return spoofers
}

// generator carries generation state.
type generator struct {
	p    Params
	rng  *rand.Rand
	dict *geodict.Dictionary
	rev  *reverse
	ipN  int
}

// reverse indexes dictionary codes by city, and the city pools eligible
// for each convention style. The real code dictionaries (UN/LOCODE,
// iconectiv CLLI) cover essentially every city an operator deploys in,
// so site selection draws from cities that HAVE the style's code —
// operator-invented codes appear only at the spec's custom-hint rate.
type reverse struct {
	iata   map[string]string // city key -> IATA code
	clli   map[string]string
	locode map[string]string
	cities []*geodict.Location // all places, stable order
	fac    []*geodict.Facility

	iataCities   []*geodict.Location // cities with an IATA code
	clliCities   []*geodict.Location
	locodeCities []*geodict.Location
	stateCities  []*geodict.Location // cities with a state/province code
}

func buildReverse(d *geodict.Dictionary) *reverse {
	r := &reverse{
		iata:   make(map[string]string),
		clli:   make(map[string]string),
		locode: make(map[string]string),
	}
	for _, a := range d.Airports() {
		key := a.Loc.Key()
		if _, ok := r.iata[key]; !ok {
			r.iata[key] = a.IATA
		}
	}
	for _, c := range d.CLLIs() {
		key := c.Loc.Key()
		if _, ok := r.clli[key]; !ok {
			r.clli[key] = c.Code
		}
	}
	for _, c := range d.Locodes() {
		key := c.Loc.Key()
		if _, ok := r.locode[key]; !ok {
			r.locode[key] = c.Code
		}
	}
	r.cities = d.Places()
	r.fac = d.Facilities()
	for _, loc := range r.cities {
		key := loc.Key()
		if _, ok := r.iata[key]; ok {
			r.iataCities = append(r.iataCities, loc)
		}
		if _, ok := r.clli[key]; ok {
			r.clliCities = append(r.clliCities, loc)
		}
		if _, ok := r.locode[key]; ok {
			r.locodeCities = append(r.locodeCities, loc)
		}
		if loc.Region != "" {
			r.stateCities = append(r.stateCities, loc)
		}
	}
	return r
}

// sitePool returns the cities eligible for a convention style.
func (r *reverse) sitePool(style Style) []*geodict.Location {
	switch style {
	case StyleIATA, StyleIATACC:
		return r.iataCities
	case StyleCLLI, StyleSplitCLLI:
		return r.clliCities
	case StyleLocode:
		return r.locodeCities
	case StyleCityState:
		return r.stateCities
	default:
		return r.cities
	}
}

// makeVPs places VPs at distinct airport cities.
func (g *generator) makeVPs(n, spoof int) []*rtt.VP {
	airports := g.dict.Airports()
	// Stable shuffle over a copy.
	idx := g.rng.Perm(len(airports))
	var vps []*rtt.VP
	seen := make(map[string]bool)
	for _, i := range idx {
		a := airports[i]
		if a.ICAO == "" { // skip metro codes; use real airports
			continue
		}
		if seen[a.Loc.Key()] {
			continue
		}
		seen[a.Loc.Key()] = true
		vp := &rtt.VP{
			Name:    fmt.Sprintf("%s-%s", a.IATA, a.Loc.Country),
			City:    a.Loc.City,
			Country: a.Loc.Country,
			Pos:     a.Loc.Pos,
		}
		if len(vps) < spoof {
			vp.SpoofTCP = true
		}
		vps = append(vps, vp)
		if len(vps) == n {
			break
		}
	}
	sort.Slice(vps, func(i, j int) bool { return vps[i].Name < vps[j].Name })
	return vps
}

var operatorNames = []string{
	"transitnet", "coreband", "fiberlink", "netspan", "routeworks",
	"backhaul", "interpath", "lightwave", "peergrid", "carriernet",
	"globalhop", "swiftroute", "densewave", "metrolink", "longhaulnet",
	"packetline", "opticore", "spanfiber", "hopmatrix", "trunknet",
	"edgeflow", "midhaul", "crosswave", "netarc", "pathbend",
	"linkforge", "wavecrest", "gridpath", "farspan", "nodeline",
	"corepulse", "fastlane", "routemesh", "beamnet", "transarc",
	"skyfiber", "duskwave", "polarnet", "zonalink", "arcspan",
	"tidenet", "vastpath", "keenroute", "plexwave", "orbitlink",
	"haloband", "driftnet", "crestpath", "fluxspan", "primehop",
}

var tlds = []string{"net", "com", "net.au", "co.uk", "de", "net", "com", "io", "net", "jp"}

// makeTinyOperator draws a long-tail operator: one or two sites, a
// couple of routers, otherwise following a normal convention.
func (g *generator) makeTinyOperator(i int, hostnameRate float64) *OperatorSpec {
	style := Style(g.rng.Intn(int(numStyles)))
	spec := &OperatorSpec{
		Suffix:          fmt.Sprintf("isp%02d.%s", i, tlds[g.rng.Intn(len(tlds))]),
		Style:           style,
		RoutersPerSite:  2,
		StaleRate:       0.01,
		ConsistencyRate: 0.95,
		HostnameRate:    hostnameRate + 0.3,
	}
	if spec.HostnameRate > 1 {
		spec.HostnameRate = 1
	}
	spec.Sites = g.makeSites(spec, 1+g.rng.Intn(2))
	return spec
}

// makeOperator draws a convention spec.
func (g *generator) makeOperator(i int, hostnameRate float64) *OperatorSpec {
	style := Style(g.rng.Intn(int(numStyles)))
	if i == 0 {
		// The first large ISP is always an IATA+country operator so the
		// flagship custom codes below appear in every world.
		style = StyleIATACC
	}
	name := operatorNames[i%len(operatorNames)]
	if i >= len(operatorNames) {
		name = fmt.Sprintf("%s%d", name, i/len(operatorNames)+1)
	}
	suffix := name + "." + tlds[g.rng.Intn(len(tlds))]
	spec := &OperatorSpec{
		Suffix:          suffix,
		Style:           style,
		RoutersPerSite:  3 + g.rng.Intn(3),
		CustomHintRate:  0,
		StaleRate:       0.01,
		ConsistencyRate: 0.9 + g.rng.Float64()*0.1,
		HostnameRate:    hostnameRate + 0.3, // operators that name routers name most of them
	}
	// A quarter of operators are sloppy: they embed geohints at an
	// unstable position and skip them in some hostnames — the paper's
	// above.net / aorta.net cases, and the reason roughly half of
	// real-world NCs classify as poor.
	if g.rng.Float64() < 0.25 {
		spec.Sloppy = true
		spec.ConsistencyRate = 0.5 + g.rng.Float64()*0.3
	}
	if spec.HostnameRate > 1 {
		spec.HostnameRate = 1
	}
	// ~40% of IATA conventions include custom hints (paper: 38.2% of
	// usable IATA regexes had at least one non-IATA hint); other styles
	// less often.
	switch style {
	case StyleIATA, StyleIATACC:
		if g.rng.Float64() < 0.4 {
			spec.CustomHintRate = 0.2 + g.rng.Float64()*0.25
		}
	case StyleCLLI, StyleSplitCLLI, StyleLocode:
		if g.rng.Float64() < 0.2 {
			spec.CustomHintRate = 0.1 + g.rng.Float64()*0.15
		}
	}
	// The first few operators are large ISPs with deep footprints — the
	// paper's ntt.net / retn.net scale, where most custom geohints live.
	nSites := 4 + g.rng.Intn(9)
	if i < 5 {
		nSites = 20 + g.rng.Intn(16)
		spec.Sloppy = false
		spec.ConsistencyRate = 0.95
		if spec.CustomHintRate < 0.25 {
			spec.CustomHintRate = 0.25
		}
	}
	spec.Sites = g.makeSites(spec, nSites)
	// The first large ISP uses the wild's flagship custom codes — the
	// paper's table 5 set: "ash" for Ashburn (IATA: Nashua), "tor" for
	// Toronto (IATA: Torrington), "tok" for Tokyo (IATA: Torokina),
	// "ldn" for London (IATA: Lamidanda). Every one collides with a real
	// airport code, which is what figure 10b measures.
	if i == 0 {
		spec.Sites = append(g.flagshipSites(spec), spec.Sites...)
	}
	return spec
}

// flagshipSites returns the paper's well-known custom-code sites, for
// cities present in the dictionary.
func (g *generator) flagshipSites(spec *OperatorSpec) []Site {
	var out []Site
	for _, f := range []struct {
		code, city, region, country string
	}{
		{"ash", "ashburn", "va", "us"},
		{"tor", "toronto", "on", "ca"},
		{"tok", "tokyo", "", "jp"},
		{"ldn", "london", "", "gb"},
	} {
		for _, loc := range g.rev.cities {
			if loc.City == f.city && loc.Region == f.region && loc.Country == f.country {
				out = append(out, Site{
					Loc: loc, Code: f.code,
					CC: countryToken(g.rng, loc), Custom: true,
				})
			}
		}
	}
	return out
}

// makeSites selects cities and codes for an operator.
func (g *generator) makeSites(spec *OperatorSpec, n int) []Site {
	var sites []Site
	seen := make(map[string]bool)
	attempts := 0
	for len(sites) < n && attempts < 400 {
		attempts++
		var site Site
		ok := false
		switch spec.Style {
		case StyleFacility:
			f := g.rev.fac[g.rng.Intn(len(g.rev.fac))]
			loc := f.Loc
			site = Site{Loc: &loc, Code: geodict.NormalizeName(f.Address)}
			ok = site.Code != "" && hasDigit(site.Code)
		default:
			pool := g.rev.sitePool(spec.Style)
			loc := pool[g.rng.Intn(len(pool))]
			site = g.codeSite(spec, loc)
			ok = site.Code != ""
		}
		if !ok || seen[site.Code] {
			continue
		}
		seen[site.Code] = true
		sites = append(sites, site)
	}
	return sites
}

// codeSite derives the code an operator uses for a city: the dictionary
// code, or — at the spec's custom rate — an invented abbreviation.
func (g *generator) codeSite(spec *OperatorSpec, loc *geodict.Location) Site {
	key := loc.Key()
	cc := countryToken(g.rng, loc)
	wantCustom := g.rng.Float64() < spec.CustomHintRate

	switch spec.Style {
	case StyleIATA, StyleIATACC:
		dictCode := g.rev.iata[key]
		if wantCustom {
			if code := customIATA(g.dict, loc); code != "" {
				return Site{Loc: loc, Code: code, CC: cc, Custom: true}
			}
		}
		if dictCode != "" {
			return Site{Loc: loc, Code: dictCode, CC: cc}
		}
		if code := customIATA(g.dict, loc); code != "" {
			return Site{Loc: loc, Code: code, CC: cc, Custom: true}
		}
	case StyleCLLI, StyleSplitCLLI:
		dictCode := g.rev.clli[key]
		if wantCustom || dictCode == "" {
			if code := customCLLI(g.dict, loc); code != "" {
				return Site{Loc: loc, Code: code, CC: cc, Custom: code != dictCode}
			}
		}
		if dictCode != "" {
			return Site{Loc: loc, Code: dictCode, CC: cc}
		}
	case StyleLocode:
		dictCode := g.rev.locode[key]
		if wantCustom || dictCode == "" {
			if code := customLocode(g.dict, loc); code != "" {
				return Site{Loc: loc, Code: code, CC: cc, Custom: code != dictCode}
			}
		}
		if dictCode != "" {
			return Site{Loc: loc, Code: dictCode, CC: cc}
		}
	case StyleCity, StyleCityState:
		return Site{Loc: loc, Code: geodict.NormalizeName(loc.City), CC: cc}
	}
	return Site{}
}

// countryToken picks the annotation token for a country ("uk" for gb
// half the time, matching operator practice).
func countryToken(rng *rand.Rand, loc *geodict.Location) string {
	if loc.Country == "gb" && rng.Intn(2) == 0 {
		return "uk"
	}
	return loc.Country
}

func hasDigit(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			return true
		}
	}
	return false
}

// consonantSkeleton derives up to n letters: the first letter then
// consonants, padding with remaining letters.
func consonantSkeleton(city string, n int) string {
	name := geodict.NormalizeName(city)
	if len(name) < n {
		return ""
	}
	out := []byte{name[0]}
	for i := 1; i < len(name) && len(out) < n; i++ {
		switch name[i] {
		case 'a', 'e', 'i', 'o', 'u':
		default:
			out = append(out, name[i])
		}
	}
	for i := 1; i < len(name) && len(out) < n; i++ {
		if !containsByte(out, name[i]) {
			out = append(out, name[i])
		}
	}
	if len(out) < n {
		return ""
	}
	return string(out)
}

func containsByte(b []byte, c byte) bool {
	for _, x := range b {
		if x == c {
			return true
		}
	}
	return false
}

// customIATA invents a 3-letter code for a city that is a learnable
// abbreviation and does not already denote the city in the dictionary.
func customIATA(d *geodict.Dictionary, loc *geodict.Location) string {
	name := geodict.NormalizeName(loc.City)
	cands := []string{}
	if len(name) >= 3 {
		cands = append(cands, name[:3])
	}
	if sk := consonantSkeleton(loc.City, 3); sk != "" {
		cands = append(cands, sk)
	}
	for _, code := range cands {
		if !abbrev.Matches(code, loc.City) {
			continue
		}
		mapsHere := false
		for _, a := range d.IATA(code) {
			if a.Loc.SameCity(loc) {
				mapsHere = true
			}
		}
		if !mapsHere {
			return code
		}
	}
	return ""
}

// customCLLI invents a 6-letter CLLI-shaped code: 4 city letters plus a
// state (US/CA) or country code.
func customCLLI(d *geodict.Dictionary, loc *geodict.Location) string {
	reg := loc.Region
	if reg == "" {
		reg = loc.Country
	}
	if loc.Country == "gb" {
		reg = "en"
	}
	if len(reg) != 2 {
		return ""
	}
	for _, city4 := range []string{consonantSkeleton(loc.City, 4), prefix4(loc.City)} {
		if city4 == "" || !abbrev.Matches(city4, loc.City) {
			continue
		}
		code := city4 + reg
		if c := d.CLLI(code); c != nil && c.Loc.SameCity(loc) {
			continue // that's the dictionary code, not custom
		}
		return code
	}
	return ""
}

func prefix4(city string) string {
	n := geodict.NormalizeName(city)
	if len(n) < 4 {
		return ""
	}
	return n[:4]
}

// customLocode invents a LOCODE-shaped code: country + 3-letter skeleton.
func customLocode(d *geodict.Dictionary, loc *geodict.Location) string {
	if len(loc.Country) != 2 {
		return ""
	}
	for _, rest := range []string{consonantSkeleton(loc.City, 3), prefix3(loc.City)} {
		if rest == "" || !abbrev.Matches(rest, loc.City) {
			continue
		}
		code := loc.Country + rest
		if c := d.Locode(code); c != nil && c.Loc.SameCity(loc) {
			continue
		}
		return code
	}
	return ""
}

func prefix3(city string) string {
	n := geodict.NormalizeName(city)
	if len(n) < 3 {
		return ""
	}
	return n[:3]
}
