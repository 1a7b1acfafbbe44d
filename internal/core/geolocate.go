package core

import (
	"sort"

	"hoiho/internal/geodict"
	"hoiho/internal/rex"
)

// Geolocation is the result of applying a learned naming convention to a
// hostname.
type Geolocation struct {
	Hostname string
	Suffix   string
	Hint     string
	Type     geodict.HintType
	Loc      *geodict.Location
	Learned  bool // the hint resolved through a stage-4 learned geohint
}

// Cause says how Decide reached its verdict.
type Cause uint8

// The five causes, in the order the decision procedure can stop.
const (
	CauseNoConvention Cause = iota // no convention for the hostname's suffix
	CauseNoMatch                   // no regex of the convention matched
	CauseUnresolved                // the first match's geohint resolves to no location
	CauseLearned                   // located through a stage-4 learned geohint
	CauseDictionary                // located through the reference dictionary
)

// Decision is the outcome of applying a naming convention to one
// hostname, with the evidence a trace of it shows.
type Decision struct {
	Cause Cause
	// Regex is the index of the first matching regex; no regex before
	// it matched. Under CauseNoMatch it is the number of regexes tried.
	Regex int
	// Extraction is what the first matching regex captured.
	Extraction rex.Extraction
	// Learned is the learned geohint behind CauseLearned, else nil.
	Learned *LearnedHint
	// Candidates counts the dictionary interpretations that survived
	// annotation filtering; the dictionary is consulted only when no
	// learned geohint applies.
	Candidates int
	// Loc is the answer under CauseLearned and CauseDictionary.
	Loc *geodict.Location
}

// Decide is the one procedure that applies a naming convention to a
// hostname (§5.3). The first regex, in learned order, that matches
// decides. Its geohint resolves through the convention's learned
// geohints first, then through the dictionary, whose interpretations
// PickLocation disambiguates. A first match that resolves to nothing is
// a miss, not a fall-through to later regexes. nc may be nil.
func Decide(nc *NamingConvention, dict *geodict.Dictionary, host string) Decision {
	if nc == nil {
		return Decision{Cause: CauseNoConvention}
	}
	for i, r := range nc.Regexes {
		ext, ok := r.Match(host)
		if !ok {
			continue
		}
		d := Decision{Regex: i, Extraction: ext}
		for _, lh := range nc.Learned {
			if lh.Type == ext.Type && lh.Hint == ext.Hint {
				d.Cause, d.Learned, d.Loc = CauseLearned, lh, lh.Loc
				return d
			}
		}
		locs := DictionaryLocations(dict, ext)
		if d.Candidates = len(locs); d.Candidates == 0 {
			d.Cause = CauseUnresolved
		} else {
			d.Cause, d.Loc = CauseDictionary, PickLocation(dict, locs)
		}
		return d
	}
	return Decision{Cause: CauseNoMatch, Regex: len(nc.Regexes)}
}

// Geolocation returns the answer of a located decision about host
// under nc, or nil when the decision located nothing.
func (d Decision) Geolocation(nc *NamingConvention, host string) *Geolocation {
	if d.Cause < CauseLearned {
		return nil
	}
	return &Geolocation{
		Hostname: host, Suffix: nc.Suffix, Hint: d.Extraction.Hint, Type: d.Extraction.Type,
		Loc: d.Loc, Learned: d.Cause == CauseLearned,
	}
}

// Geolocate applies a naming convention to a hostname through Decide.
// It is a thin wrapper for one-off application; services applying
// conventions at volume compile them into a geoloc.Index, which decides
// the same way.
func Geolocate(nc *NamingConvention, dict *geodict.Dictionary, host string) (*Geolocation, bool) {
	g := Decide(nc, dict, host).Geolocation(nc, host)
	return g, g != nil
}

// DictionaryLocations resolves an extraction against the reference
// dictionary, dropping the interpretations its annotation codes
// contradict. The locations are the dictionary's own and must not be
// modified.
func DictionaryLocations(d *geodict.Dictionary, ext rex.Extraction) []*geodict.Location {
	locs, _ := dictionaryLocations(d, ext)
	return locs
}

// dictionaryLocations is DictionaryLocations, also reporting whether
// the dictionary holds the hint at all, annotations aside.
func dictionaryLocations(d *geodict.Dictionary, ext rex.Extraction) (locs []*geodict.Location, inDict bool) {
	all := d.Locations(ext.Type, ext.Hint)
	locs = all[:0]
	for _, loc := range all {
		if d.Agrees(loc, ext.Country, ext.State) {
			locs = append(locs, loc)
		}
	}
	return locs, len(all) > 0
}

// PickLocation disambiguates multiple interpretations: facility presence
// first, then population, then a stable key order.
func PickLocation(d *geodict.Dictionary, locs []*geodict.Location) *geodict.Location {
	if len(locs) == 1 {
		return locs[0]
	}
	sorted := append([]*geodict.Location(nil), locs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		af := d.HasFacility(a.City, a.Region, a.Country)
		bf := d.HasFacility(b.City, b.Region, b.Country)
		if af != bf {
			return af
		}
		if a.Population != b.Population {
			return a.Population > b.Population
		}
		return a.Key() < b.Key()
	})
	return sorted[0]
}
