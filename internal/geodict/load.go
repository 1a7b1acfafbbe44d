package geodict

import (
	"bufio"
	"embed"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"hoiho/internal/geo"
)

//go:embed data/*.tsv
var dataFS embed.FS

var (
	defaultOnce sync.Once
	defaultDict *Dictionary
	defaultErr  error
)

// Default returns the dictionary assembled from the embedded curated
// datasets. The dictionary is built once and shared; callers must not
// mutate it.
func Default() (*Dictionary, error) {
	defaultOnce.Do(func() {
		defaultDict, defaultErr = loadEmbedded()
	})
	return defaultDict, defaultErr
}

// MustDefault is Default but panics on error; for tests and examples.
func MustDefault() *Dictionary {
	d, err := Default()
	if err != nil {
		panic(err)
	}
	return d
}

func loadEmbedded() (*Dictionary, error) {
	d := newDictionary()
	steps := []struct {
		file string
		fn   func(*Dictionary, io.Reader) error
	}{
		{"data/countries.tsv", loadCountries},
		{"data/states.tsv", loadStates},
		{"data/cities.tsv", loadCities},
		{"data/airports.tsv", loadAirports},
		{"data/locodes.tsv", loadLocodes},
		{"data/clli.tsv", loadCLLI},
		{"data/facilities.tsv", loadFacilities},
	}
	for _, s := range steps {
		f, err := dataFS.Open(s.file)
		if err != nil {
			return nil, fmt.Errorf("geodict: open %s: %w", s.file, err)
		}
		err = s.fn(d, f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("geodict: load %s: %w", s.file, err)
		}
	}
	return d, nil
}

// forEachRecord streams non-comment, non-blank TSV lines to fn, reporting
// errors with one-based line numbers.
func forEachRecord(r io.Reader, want int, fn func(fields []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != want {
			return fmt.Errorf("line %d: got %d fields, want %d", line, len(fields), want)
		}
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		if err := fn(fields); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	return sc.Err()
}

func parseLatLong(latS, lonS string) (geo.LatLong, error) {
	lat, err := strconv.ParseFloat(latS, 64)
	if err != nil {
		return geo.LatLong{}, fmt.Errorf("bad latitude %q: %w", latS, err)
	}
	lon, err := strconv.ParseFloat(lonS, 64)
	if err != nil {
		return geo.LatLong{}, fmt.Errorf("bad longitude %q: %w", lonS, err)
	}
	p := geo.LatLong{Lat: lat, Long: lon}
	if !p.Valid() {
		return geo.LatLong{}, fmt.Errorf("coordinates %v out of range", p)
	}
	return p, nil
}

// LoadCountries parses "alpha2 \t alpha3 \t name" records.
func loadCountries(d *Dictionary, r io.Reader) error {
	return forEachRecord(r, 3, func(f []string) error {
		return d.addCountry(f[0], f[1], f[2])
	})
}

// LoadStates parses "country \t code \t name" records.
func loadStates(d *Dictionary, r io.Reader) error {
	return forEachRecord(r, 3, func(f []string) error {
		return d.addState(f[0], f[1], f[2])
	})
}

// LoadCities parses "city \t region \t country \t lat \t long \t pop".
func loadCities(d *Dictionary, r io.Reader) error {
	return forEachRecord(r, 6, func(f []string) error {
		pos, err := parseLatLong(f[3], f[4])
		if err != nil {
			return err
		}
		pop, err := strconv.Atoi(f[5])
		if err != nil {
			return fmt.Errorf("bad population %q: %w", f[5], err)
		}
		return d.addPlace(Location{
			City: f[0], Region: f[1], Country: f[2], Pos: pos, Population: pop,
		})
	})
}

// loadAirports parses "iata \t icao \t city \t region \t country \t lat \t long".
// Population is joined from the place dictionary when the city is known.
func loadAirports(d *Dictionary, r io.Reader) error {
	return forEachRecord(r, 7, func(f []string) error {
		pos, err := parseLatLong(f[5], f[6])
		if err != nil {
			return err
		}
		loc := Location{City: f[2], Region: f[3], Country: f[4], Pos: pos}
		if p, ok := d.placeLocation(f[2], f[3], f[4]); ok {
			loc.Population = p.Population
		}
		return d.addAirport(f[0], f[1], loc)
	})
}

// loadLocodes parses "locode \t city \t region \t country \t lat \t long".
func loadLocodes(d *Dictionary, r io.Reader) error {
	return forEachRecord(r, 6, func(f []string) error {
		pos, err := parseLatLong(f[4], f[5])
		if err != nil {
			return err
		}
		loc := Location{City: f[1], Region: f[2], Country: f[3], Pos: pos}
		if p, ok := d.placeLocation(f[1], f[2], f[3]); ok {
			loc.Population = p.Population
		}
		return d.addLocode(f[0], loc)
	})
}

// loadCLLI parses "prefix \t city \t region \t country"; coordinates are
// joined from the place dictionary (the paper joins iconectiv city names
// against GeoNames the same way).
func loadCLLI(d *Dictionary, r io.Reader) error {
	return forEachRecord(r, 4, func(f []string) error {
		p, ok := d.placeLocation(f[1], f[2], f[3])
		if !ok {
			return fmt.Errorf("CLLI %s: city %q (%s,%s) not in place dictionary", f[0], f[1], f[2], f[3])
		}
		return d.addCLLI(f[0], *p)
	})
}

// loadFacilities parses "name \t address \t city \t region \t country \t lat \t long".
func loadFacilities(d *Dictionary, r io.Reader) error {
	return forEachRecord(r, 7, func(f []string) error {
		pos, err := parseLatLong(f[5], f[6])
		if err != nil {
			return err
		}
		loc := Location{City: f[2], Region: f[3], Country: f[4], Pos: pos}
		return d.addFacility(f[0], f[1], loc)
	})
}

// addAirport registers an airport under its IATA (and, when non-empty,
// ICAO) code. Multiple airports may share an IATA code only through
// separate addAirport calls with distinct locations (used to model
// metro codes); duplicate exact registrations are rejected.
func (d *Dictionary) addAirport(iata, icao string, loc Location) error {
	iata = strings.ToLower(iata)
	icao = strings.ToLower(icao)
	if len(iata) != 3 {
		return fmt.Errorf("geodict: IATA code %q must be 3 letters", iata)
	}
	if icao != "" && len(icao) != 4 {
		return fmt.Errorf("geodict: ICAO code %q must be 4 letters", icao)
	}
	a := &Airport{IATA: iata, ICAO: icao, Loc: loc}
	for _, prev := range d.iata[iata] {
		if prev.Loc.SameCity(&a.Loc) {
			return fmt.Errorf("geodict: duplicate airport %s for %s", iata, loc.String())
		}
	}
	d.iata[iata] = append(d.iata[iata], a)
	if icao != "" {
		if _, dup := d.icao[icao]; dup {
			return fmt.Errorf("geodict: duplicate ICAO code %s", icao)
		}
		d.icao[icao] = a
	}
	return nil
}

// addLocode registers a 5-letter UN/LOCODE.
func (d *Dictionary) addLocode(code string, loc Location) error {
	code = strings.ToLower(code)
	if len(code) != 5 {
		return fmt.Errorf("geodict: LOCODE %q must be 5 letters", code)
	}
	if _, dup := d.locode[code]; dup {
		return fmt.Errorf("geodict: duplicate LOCODE %s", code)
	}
	if loc.Country != "" && code[:2] != loc.Country {
		return fmt.Errorf("geodict: LOCODE %s does not begin with country %s", code, loc.Country)
	}
	d.locode[code] = &Code{Code: code, Loc: loc}
	return nil
}

// addCLLI registers a 6-letter CLLI prefix.
func (d *Dictionary) addCLLI(prefix string, loc Location) error {
	prefix = strings.ToLower(prefix)
	if len(prefix) != 6 {
		return fmt.Errorf("geodict: CLLI prefix %q must be 6 letters", prefix)
	}
	if _, dup := d.clli[prefix]; dup {
		return fmt.Errorf("geodict: duplicate CLLI prefix %s", prefix)
	}
	d.clli[prefix] = &Code{Code: prefix, Loc: loc}
	return nil
}

// addPlace registers a city or town name.
func (d *Dictionary) addPlace(loc Location) error {
	if loc.City == "" {
		return fmt.Errorf("geodict: place with empty city name")
	}
	key := NormalizeName(loc.City)
	l := loc
	for _, prev := range d.places[key] {
		if prev.SameCity(&l) {
			return fmt.Errorf("geodict: duplicate place %s", loc.String())
		}
	}
	d.places[key] = append(d.places[key], &l)
	d.placeList = nil
	return nil
}

// addFacility registers a colocation facility.
func (d *Dictionary) addFacility(name, address string, loc Location) error {
	if name == "" {
		return fmt.Errorf("geodict: facility with empty name")
	}
	d.facilities = append(d.facilities, &Facility{
		Name: strings.ToLower(name), Address: strings.ToLower(address), Loc: loc,
		addrKey: NormalizeName(address),
	})
	return nil
}

// addCountry registers an ISO-3166 country.
func (d *Dictionary) addCountry(alpha2, alpha3, name string) error {
	alpha2 = strings.ToLower(alpha2)
	alpha3 = strings.ToLower(alpha3)
	if len(alpha2) != 2 {
		return fmt.Errorf("geodict: country code %q must be 2 letters", alpha2)
	}
	if _, dup := d.countries[alpha2]; dup {
		return fmt.Errorf("geodict: duplicate country %s", alpha2)
	}
	d.countries[alpha2] = name
	if alpha3 != "" {
		d.alpha3[alpha3] = alpha2
	}
	if name != "" {
		d.countryIx[NormalizeName(name)] = alpha2
	}
	return nil
}

// addState registers a state/province code within a country.
func (d *Dictionary) addState(country, code, name string) error {
	country = strings.ToLower(country)
	code = strings.ToLower(code)
	if country == "" || code == "" {
		return fmt.Errorf("geodict: state requires country and code")
	}
	m := d.states[country]
	if m == nil {
		m = make(map[string]string)
		d.states[country] = m
	}
	if _, dup := m[code]; dup {
		return fmt.Errorf("geodict: duplicate state %s-%s", country, code)
	}
	m[code] = name
	return nil
}

// placeLocation finds the registered place exactly matching the triple,
// used when joining other data sources against the place dictionary.
func (d *Dictionary) placeLocation(city, region, country string) (*Location, bool) {
	for _, l := range d.places[NormalizeName(city)] {
		if l.City == city && l.Region == region && l.Country == country {
			return l, true
		}
	}
	return nil, false
}
