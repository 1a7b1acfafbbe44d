package core

import (
	"sort"

	"hoiho/internal/abbrev"
	"hoiho/internal/geodict"
	"hoiho/internal/rex"
)

// The stage-4 thresholds (paper §5.4).
const (
	// LearnStartPPV gates which NCs stage 4 learns from: PPV above 40%.
	LearnStartPPV = 0.40
	// LearnHintPPV is the minimum PPV a learned geohint must reach: 80%.
	LearnHintPPV = 0.80
	// LearnMarginTP is how many more true positives a learned hint must
	// have than the existing dictionary interpretation: one.
	LearnMarginTP = 1
	// LearnCongruentCC is the congruent-router threshold when the
	// extraction carries a state or country code: one (Config's
	// LearnCongruentNoCC applies otherwise).
	LearnCongruentCC = 1
	// PlaceMinContiguous is the contiguous-character requirement when
	// learning abbreviations for place-name conventions: four.
	PlaceMinContiguous = 4
)

// learnHints implements stage 4 (paper §5.4): for a convention whose
// extractions are mostly trustworthy, interpret the false-positive and
// unknown extractions as operator-specific geohints by matching them as
// abbreviations of place names, ranking candidate places by facility
// presence, population, and RTT congruence.
//
// Learned hints are installed into the eval context's overrides so a
// re-evaluation of the convention credits them.
func (e *evalCtx) learnHints(suffix string, ev ncEval, tagged []*Tagged) []*LearnedHint {
	// Gate: the NC must already identify at least MinUniqueHints unique
	// RTT-consistent geohints with PPV above the learning threshold.
	if ev.Tally.UniqueHints < MinUniqueHints || ev.Tally.PPV() <= LearnStartPPV {
		return nil
	}

	// Group FP/UNK extractions by (type, hint).
	type group struct {
		hosts []int // indices into tagged
		ext   rex.Extraction
	}
	groups := make(map[overrideKey]*group)
	var order []overrideKey
	for hi, ho := range ev.PerHost {
		if ho.Outcome != OutcomeFP && ho.Outcome != OutcomeUNK {
			continue
		}
		if ho.Hint == "" {
			continue
		}
		k := overrideKey{ho.Ext.Type, ho.Hint}
		g := groups[k]
		if g == nil {
			g = &group{ext: ho.Ext}
			groups[k] = g
			order = append(order, k)
		}
		g.hosts = append(g.hosts, hi)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].t != order[j].t {
			return order[i].t < order[j].t
		}
		return order[i].hint < order[j].hint
	})

	var learned []*LearnedHint
	for _, k := range order {
		if _, exists := e.overrides[k]; exists {
			continue // already learned from a higher-ranked NC
		}
		g := groups[k]
		if lh := e.learnOne(suffix, k, g.ext, g.hosts, tagged); lh != nil {
			learned = append(learned, lh)
			e.overrides[k] = lh.Loc
		}
	}
	return learned
}

// learnOne attempts to learn the location of a single extracted hint.
func (e *evalCtx) learnOne(suffix string, k overrideKey, ext rex.Extraction, hosts []int, tagged []*Tagged) *LearnedHint {
	cands := e.candidatePlaces(k, ext)
	if len(cands) == 0 {
		return nil
	}

	// Count congruence per candidate.
	type scored struct {
		loc      *geodict.Location
		tp, fp   int
		facility bool
	}
	var best *scored
	scoredCands := make([]*scored, 0, len(cands))
	for _, loc := range cands {
		s := &scored{loc: loc}
		for _, hi := range hosts {
			t := tagged[hi]
			if e.consistent(t.RH.Router, loc.Pos) {
				s.tp++
			} else {
				s.fp++
			}
		}
		s.facility = e.in.Dict.HasFacility(loc.City, loc.Region, loc.Country)
		scoredCands = append(scoredCands, s)
	}
	// Rank: facility first, then population, then TPs (paper §5.4).
	// Either prior can be ablated through the config.
	sort.SliceStable(scoredCands, func(i, j int) bool {
		a, b := scoredCands[i], scoredCands[j]
		if e.cfg.LearnRankFacility && a.facility != b.facility {
			return a.facility
		}
		if e.cfg.LearnRankPopulation && a.loc.Population != b.loc.Population {
			return a.loc.Population > b.loc.Population
		}
		if a.tp != b.tp {
			return a.tp > b.tp
		}
		return a.loc.Key() < b.loc.Key()
	})
	best = scoredCands[0]

	// The learned hint must be generally correct.
	if best.tp+best.fp == 0 ||
		float64(best.tp)/float64(best.tp+best.fp) < LearnHintPPV {
		return nil
	}

	// Congruent-router threshold: the presence of a state/country code
	// in the extraction reduces the over-fitting risk (paper §5.4).
	need := e.cfg.LearnCongruentNoCC
	if ext.Country != "" || ext.State != "" {
		need = LearnCongruentCC
	}
	if best.tp < need {
		return nil
	}

	// The learned interpretation must beat the existing dictionary
	// interpretation by more than LearnMarginTP true positives.
	collide := false
	if existing := e.in.Dict.Locations(k.t, k.hint); len(existing) > 0 {
		collide = true
		existTP := 0
		for _, hi := range hosts {
			t := tagged[hi]
			for _, loc := range existing {
				if e.consistent(t.RH.Router, loc.Pos) {
					existTP++
					break
				}
			}
		}
		if best.tp <= existTP+LearnMarginTP {
			return nil
		}
	}

	return &LearnedHint{
		Suffix: suffix, Hint: k.hint, Type: k.t,
		Loc: best.loc, TP: best.tp, FP: best.fp, Collide: collide,
	}
}

// candidatePlaces enumerates the place-dictionary entries the hint could
// abbreviate, honouring the structural rules of each hint type and any
// extracted annotation codes.
func (e *evalCtx) candidatePlaces(k overrideKey, ext rex.Extraction) []*geodict.Location {
	d := e.in.Dict
	var out []*geodict.Location

	match := func(loc *geodict.Location, abbr string, minContig int) {
		if !d.Agrees(loc, ext.Country, ext.State) {
			return
		}
		if minContig > 1 {
			if !abbrev.MatchesPlaceName(abbr, loc.City, minContig) {
				return
			}
		} else if !abbrev.Matches(abbr, loc.City) {
			return
		}
		out = append(out, loc)
	}

	switch k.t {
	case geodict.HintIATA:
		// Three-letter codes may abbreviate any place name.
		for _, loc := range d.Places() {
			match(loc, k.hint, 0)
		}
	case geodict.HintLocode:
		// The first two letters must be the country; the rest
		// abbreviates a place in that country.
		if len(k.hint) != 5 {
			return nil
		}
		country, ok := d.CountryCode(k.hint[:2])
		if !ok {
			return nil
		}
		rest := k.hint[2:]
		for _, loc := range d.Places() {
			if loc.Country != country {
				continue
			}
			match(loc, rest, 0)
		}
	case geodict.HintCLLI:
		// Four city letters plus a two-letter state or country.
		if len(k.hint) != 6 {
			return nil
		}
		city4, reg2 := k.hint[:4], k.hint[4:]
		// CLLI uses "en" for England; GB places have no region in our
		// place table.
		n, ok := d.StateName("gb", reg2)
		england := ok && n == "england"
		for _, loc := range d.Places() {
			if d.Agrees(loc, "", reg2) || d.Agrees(loc, reg2, "") || (england && loc.Country == "gb") {
				match(loc, city4, 0)
			}
		}
	case geodict.HintPlace:
		for _, loc := range d.Places() {
			match(loc, k.hint, PlaceMinContiguous)
		}
	default:
		// ICAO and facility hints are too structured to learn from
		// abbreviations.
		return nil
	}
	return out
}
