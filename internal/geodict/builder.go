package geodict

import (
	"fmt"
	"strings"
)

// Builder assembles a Dictionary programmatically. The zero value is not
// usable; obtain one from NewBuilder. The synthetic topology generator
// uses a Builder to register codes for places the embedded data lacks.
type Builder struct {
	d *Dictionary
}

// NewBuilder returns a Builder wrapping a fresh empty Dictionary.
func NewBuilder() *Builder {
	return &Builder{d: NewDictionary()}
}

// Dictionary returns the dictionary under construction. The Builder may
// continue to be used afterwards; the same dictionary is returned.
func (b *Builder) Dictionary() *Dictionary { return b.d }

// AddAirport registers an airport under its IATA (and, when non-empty,
// ICAO) code. Multiple airports may share an IATA code only through
// separate AddAirport calls with distinct locations (used to model
// metro codes); duplicate exact registrations are rejected.
func (b *Builder) AddAirport(iata, icao string, loc Location) error {
	iata = strings.ToLower(iata)
	icao = strings.ToLower(icao)
	if len(iata) != 3 {
		return fmt.Errorf("geodict: IATA code %q must be 3 letters", iata)
	}
	if icao != "" && len(icao) != 4 {
		return fmt.Errorf("geodict: ICAO code %q must be 4 letters", icao)
	}
	a := &Airport{IATA: iata, ICAO: icao, Loc: loc}
	for _, prev := range b.d.iata[iata] {
		if prev.Loc.SameCity(&a.Loc) {
			return fmt.Errorf("geodict: duplicate airport %s for %s", iata, loc.String())
		}
	}
	b.d.iata[iata] = append(b.d.iata[iata], a)
	if icao != "" {
		if _, dup := b.d.icao[icao]; dup {
			return fmt.Errorf("geodict: duplicate ICAO code %s", icao)
		}
		b.d.icao[icao] = a
	}
	return nil
}

// AddLocode registers a 5-letter UN/LOCODE.
func (b *Builder) AddLocode(code string, loc Location) error {
	code = strings.ToLower(code)
	if len(code) != 5 {
		return fmt.Errorf("geodict: LOCODE %q must be 5 letters", code)
	}
	if _, dup := b.d.locode[code]; dup {
		return fmt.Errorf("geodict: duplicate LOCODE %s", code)
	}
	if loc.Country != "" && code[:2] != loc.Country {
		return fmt.Errorf("geodict: LOCODE %s does not begin with country %s", code, loc.Country)
	}
	b.d.locode[code] = &Code{Code: code, Loc: loc}
	return nil
}

// AddCLLI registers a 6-letter CLLI prefix.
func (b *Builder) AddCLLI(prefix string, loc Location) error {
	prefix = strings.ToLower(prefix)
	if len(prefix) != 6 {
		return fmt.Errorf("geodict: CLLI prefix %q must be 6 letters", prefix)
	}
	if _, dup := b.d.clli[prefix]; dup {
		return fmt.Errorf("geodict: duplicate CLLI prefix %s", prefix)
	}
	b.d.clli[prefix] = &Code{Code: prefix, Loc: loc}
	return nil
}

// AddPlace registers a city or town name.
func (b *Builder) AddPlace(loc Location) error {
	if loc.City == "" {
		return fmt.Errorf("geodict: place with empty city name")
	}
	key := NormalizeName(loc.City)
	l := loc
	for _, prev := range b.d.places[key] {
		if prev.SameCity(&l) {
			return fmt.Errorf("geodict: duplicate place %s", loc.String())
		}
	}
	b.d.places[key] = append(b.d.places[key], &l)
	b.d.placeList = nil
	return nil
}

// AddFacility registers a colocation facility.
func (b *Builder) AddFacility(name, address string, loc Location) error {
	if name == "" {
		return fmt.Errorf("geodict: facility with empty name")
	}
	b.d.facilities = append(b.d.facilities, &Facility{
		Name: strings.ToLower(name), Address: strings.ToLower(address), Loc: loc,
		addrKey: NormalizeName(address),
	})
	return nil
}

// AddCountry registers an ISO-3166 country.
func (b *Builder) AddCountry(alpha2, alpha3, name string) error {
	alpha2 = strings.ToLower(alpha2)
	alpha3 = strings.ToLower(alpha3)
	if len(alpha2) != 2 {
		return fmt.Errorf("geodict: country code %q must be 2 letters", alpha2)
	}
	if _, dup := b.d.countries[alpha2]; dup {
		return fmt.Errorf("geodict: duplicate country %s", alpha2)
	}
	b.d.countries[alpha2] = name
	if alpha3 != "" {
		b.d.alpha3[alpha3] = alpha2
	}
	if name != "" {
		b.d.countryIx[NormalizeName(name)] = alpha2
	}
	return nil
}

// AddState registers a state/province code within a country.
func (b *Builder) AddState(country, code, name string) error {
	country = strings.ToLower(country)
	code = strings.ToLower(code)
	if country == "" || code == "" {
		return fmt.Errorf("geodict: state requires country and code")
	}
	m := b.d.states[country]
	if m == nil {
		m = make(map[string]string)
		b.d.states[country] = m
	}
	if _, dup := m[code]; dup {
		return fmt.Errorf("geodict: duplicate state %s-%s", country, code)
	}
	m[code] = name
	if name != "" {
		key := NormalizeName(name)
		b.d.stateIx[key] = append(b.d.stateIx[key], StateRef{Country: country, Code: code})
	}
	return nil
}

// PlaceLocation finds the registered place exactly matching the triple,
// used when joining other data sources against the place dictionary.
func (b *Builder) PlaceLocation(city, region, country string) (*Location, bool) {
	for _, l := range b.d.places[NormalizeName(city)] {
		if l.City == city && l.Region == region && l.Country == country {
			return l, true
		}
	}
	return nil, false
}
