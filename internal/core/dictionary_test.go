package core

import (
	"testing"

	"hoiho/internal/geodict"
	"hoiho/internal/rex"
)

// oracleDictionaryLocations is the per-type lookup and annotation
// filter DictionaryLocations replaced, kept as the reference its one
// dictionary lookup must reproduce.
func oracleDictionaryLocations(d *geodict.Dictionary, ext rex.Extraction) []*geodict.Location {
	var locs []*geodict.Location
	switch ext.Type {
	case geodict.HintIATA:
		for _, a := range d.IATA(ext.Hint) {
			loc := a.Loc
			locs = append(locs, &loc)
		}
	case geodict.HintICAO:
		if a := d.ICAO(ext.Hint); a != nil {
			loc := a.Loc
			locs = append(locs, &loc)
		}
	case geodict.HintLocode:
		if c := d.Locode(ext.Hint); c != nil {
			loc := c.Loc
			locs = append(locs, &loc)
		}
	case geodict.HintCLLI:
		if c := d.CLLI(ext.Hint); c != nil {
			loc := c.Loc
			locs = append(locs, &loc)
		}
	case geodict.HintPlace:
		locs = append(locs, d.Place(ext.Hint)...)
	case geodict.HintFacility:
		for _, f := range d.FacilityByAddress(ext.Hint) {
			loc := f.Loc
			locs = append(locs, &loc)
		}
	}
	out := locs[:0]
	for _, loc := range locs {
		if ext.Country != "" && !d.CountryEquivalent(ext.Country, loc.Country) {
			continue
		}
		if ext.State != "" && !d.StateEquivalent(ext.State, loc.Country, loc.Region) {
			continue
		}
		out = append(out, loc)
	}
	return out
}

// checkAgainstOracle fails t unless DictionaryLocations returns the
// oracle's locations, equal by value and in the same order.
func checkAgainstOracle(t *testing.T, d *geodict.Dictionary, ext rex.Extraction) {
	t.Helper()
	got, want := DictionaryLocations(d, ext), oracleDictionaryLocations(d, ext)
	if len(got) != len(want) {
		t.Fatalf("%+v: %d locations, oracle %d", ext, len(got), len(want))
	}
	for i := range got {
		if *got[i] != *want[i] {
			t.Fatalf("%+v: location %d is %+v, oracle %+v", ext, i, *got[i], *want[i])
		}
	}
}

// TestDictionaryLocationsEveryKey sends every code, place name and
// facility address of the embedded dictionary through
// DictionaryLocations, bare and with an annotation that contradicts it.
func TestDictionaryLocationsEveryKey(t *testing.T) {
	d := geodict.MustDefault()
	type key struct {
		t geodict.HintType
		s string
	}
	var keys []key
	for _, a := range d.Airports() {
		keys = append(keys, key{geodict.HintIATA, a.IATA})
		if a.ICAO != "" {
			keys = append(keys, key{geodict.HintICAO, a.ICAO})
		}
	}
	for _, c := range d.Locodes() {
		keys = append(keys, key{geodict.HintLocode, c.Code})
	}
	for _, c := range d.CLLIs() {
		keys = append(keys, key{geodict.HintCLLI, c.Code})
	}
	for _, loc := range d.Places() {
		keys = append(keys, key{geodict.HintPlace, loc.City})
	}
	for _, f := range d.Facilities() {
		keys = append(keys, key{geodict.HintFacility, f.Address})
	}
	found := make(map[geodict.HintType]int)
	for _, k := range keys {
		ext := rex.Extraction{Type: k.t, Hint: k.s}
		if len(DictionaryLocations(d, ext)) > 0 {
			found[k.t]++
		}
		checkAgainstOracle(t, d, ext)
		ext.Country, ext.State = "us", "va"
		checkAgainstOracle(t, d, ext)
	}
	for _, ht := range []geodict.HintType{geodict.HintIATA, geodict.HintICAO, geodict.HintLocode,
		geodict.HintCLLI, geodict.HintPlace, geodict.HintFacility} {
		if found[ht] == 0 {
			t.Errorf("no %s key resolved", ht)
		}
	}
}

// FuzzDictionaryLocations checks DictionaryLocations against the
// oracle for any hint type, hint and annotation codes.
func FuzzDictionaryLocations(f *testing.F) {
	for _, seed := range []struct {
		t                     byte
		hint, country, region string
	}{
		{byte(geodict.HintIATA), "ash", "", ""},
		{byte(geodict.HintICAO), "egll", "", ""},
		{byte(geodict.HintLocode), "usqas", "", ""},
		{byte(geodict.HintCLLI), "asbnva", "", ""},
		{byte(geodict.HintPlace), "washington", "", ""},
		{byte(geodict.HintFacility), "529bryant", "", ""},
		{byte(geodict.HintIATA), "LHR", "", ""},
		{byte(geodict.HintPlace), "Fort Collins", "", ""},
		{byte(geodict.HintIATA), "lhr", "uk", ""},
		{byte(geodict.HintIATA), "ash", "us", "va"},
		{byte(geodict.HintPlace), "washington", "", "dc"},
		{byte(geodict.HintPlace), "london", "gb", "eng"},
		{byte(geodict.HintCountry), "us", "", ""},
		{byte(geodict.HintNone), "ash", "", ""},
		{200, "ash", "", ""},
		{byte(geodict.HintPlace), "zürich", "", ""},
		{byte(geodict.HintIATA), "ŁHR", "ü", "ß"},
	} {
		f.Add(seed.t, seed.hint, seed.country, seed.region)
	}
	d := geodict.MustDefault()
	f.Fuzz(func(t *testing.T, typ byte, hint, country, state string) {
		checkAgainstOracle(t, d, rex.Extraction{Type: geodict.HintType(typ), Hint: hint, Country: country, State: state})
	})
}
