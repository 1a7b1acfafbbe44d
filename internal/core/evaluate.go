package core

import (
	"math"

	"hoiho/internal/geo"
	"hoiho/internal/geodict"
	"hoiho/internal/itdk"
	"hoiho/internal/rex"
)

// overrideKey identifies a learned geohint within a suffix.
type overrideKey struct {
	t    geodict.HintType
	hint string
}

// resolveEntry memoizes one dictionary resolution. The slice is shared
// across lookups; resolve callers only iterate it.
type resolveEntry struct {
	locs   []*geodict.Location
	inDict bool
}

// consistKey identifies one RTT-consistency question: the matrix and
// tolerance are fixed for the life of an evalCtx, so (router, position)
// determines the verdict. The router is keyed by pointer and the
// position by its coordinates' bits, so a probe hashes no string.
type consistKey struct {
	router    *itdk.Router
	lat, long uint64
}

// evalCtx carries everything needed to classify regex extractions.
type evalCtx struct {
	in        Inputs
	cfg       Config
	overrides map[overrideKey]*geodict.Location

	// Stage 3 evaluates every candidate regex against every hostname in
	// the group, so the same extraction strings and the same
	// (router, location) consistency questions recur across candidates.
	// Both answers are pure functions of immutable inputs (the dictionary
	// and the RTT matrix), so they memoize exactly. resolveMemo sits
	// below the override check in resolve, keeping stage-4 installs
	// visible.
	resolveMemo map[rex.Extraction]resolveEntry
	rttMemo     map[consistKey]bool

	// Set building re-applies the same regex to the same hostnames
	// across trial sets (selectNC grows sets member by member, and
	// re-selects after learning), so regex applications memoize per
	// (regex, host index). A regex earns a memo slice on its second
	// evaluateSet appearance — singles-only regexes never pay the
	// memory — and memoBudget bounds total entries. The evals counter
	// keeps counting applications, cached or not.
	matchMemo  map[*rex.Regex][]matchEntry
	matchSeen  map[*rex.Regex]bool
	memoTagged *Tagged // identity guard: first element of the memoized tagged slice
	memoHosts  int
	memoBudget int

	// uniq holds evaluateSet's unique-hint sets, cleared and reused by
	// every call: uniq[0] for the whole set, uniq[1+i] for its regex i.
	uniq []map[string]bool

	// evals counts regex applications and rttChecks counts consistency
	// tests across the whole stage 3-5 lifetime of the context. Plain
	// fields (an evalCtx belongs to one worker), reported to a span only
	// once the group finishes.
	evals     int64
	rttChecks int64
}

// matchMemoBudget caps the total memoized regex applications per
// evalCtx (~40 MB at 80 bytes/entry); past it, applications recompute.
const matchMemoBudget = 1 << 19

// matchEntry memoizes one regex application to one tagged hostname.
type matchEntry struct {
	ext  rex.Extraction
	ok   bool
	done bool
}

func newEvalCtx(in Inputs, cfg Config) *evalCtx {
	return &evalCtx{
		in: in, cfg: cfg,
		overrides:   make(map[overrideKey]*geodict.Location),
		resolveMemo: make(map[rex.Extraction]resolveEntry),
		rttMemo:     make(map[consistKey]bool),
		matchMemo:   make(map[*rex.Regex][]matchEntry),
		matchSeen:   make(map[*rex.Regex]bool),
		memoBudget:  matchMemoBudget,
	}
}

// regexMemo returns the memo slice for r over the current tagged slice,
// or nil when r should be evaluated directly (first appearance, or
// budget exhausted).
func (e *evalCtx) regexMemo(r *rex.Regex, tagged []*Tagged) []matchEntry {
	if len(tagged) == 0 {
		return nil
	}
	// Memoized entries are keyed by host index, so they are only valid
	// against the tagged slice they were computed for.
	if e.memoTagged != tagged[0] || e.memoHosts != len(tagged) {
		clear(e.matchMemo)
		clear(e.matchSeen)
		e.memoTagged, e.memoHosts = tagged[0], len(tagged)
		e.memoBudget = matchMemoBudget
	}
	if mm, ok := e.matchMemo[r]; ok {
		return mm
	}
	if !e.matchSeen[r] {
		e.matchSeen[r] = true
		return nil
	}
	if e.memoBudget < len(tagged) {
		return nil
	}
	e.memoBudget -= len(tagged)
	mm := make([]matchEntry, len(tagged))
	e.matchMemo[r] = mm
	return mm
}

// consistent answers the RTT-consistency question through the memo.
// Callers count rttChecks themselves: the counter measures questions
// asked, which stays invariant whether or not the answer was cached.
func (e *evalCtx) consistent(router *itdk.Router, pos geo.LatLong) bool {
	k := consistKey{router, math.Float64bits(pos.Lat), math.Float64bits(pos.Long)}
	if v, ok := e.rttMemo[k]; ok {
		return v
	}
	v := e.in.RTT.Consistent(router.ID, pos, ToleranceMs)
	e.rttMemo[k] = v
	return v
}

// resolve maps an extraction to candidate locations: a learned
// override when one exists, else the memoized dictionary reading of
// dictionaryLocations. inDict reports whether the hint is in the
// overrides or the dictionary at all; when false the outcome is UNK.
func (e *evalCtx) resolve(ext rex.Extraction) (locs []*geodict.Location, inDict bool) {
	if ov, ok := e.overrides[overrideKey{ext.Type, ext.Hint}]; ok {
		return []*geodict.Location{ov}, true
	}
	ent, ok := e.resolveMemo[ext]
	if !ok {
		ent.locs, ent.inDict = dictionaryLocations(e.in.Dict, ext)
		e.resolveMemo[ext] = ent
	}
	return ent.locs, ent.inDict
}

// outcome classifies a single regex application to a tagged hostname
// (paper §5.3). matched/ext come from the regex; the tagged hostname
// supplies the apparent-geohint expectations.
func (e *evalCtx) outcome(t *Tagged, ext rex.Extraction, matched bool) (Outcome, string) {
	if !t.hasPing {
		// No delay constraints: the hostname can neither confirm nor
		// refute a convention.
		return OutcomeNone, ""
	}
	if !matched {
		if t.HasTags() {
			return OutcomeFN, ""
		}
		return OutcomeNone, ""
	}
	locs, inDict := e.resolve(ext)
	if !inDict {
		return OutcomeUNK, ext.Hint
	}
	if len(locs) == 0 {
		// The extracted annotation contradicts every interpretation.
		return OutcomeFP, ext.Hint
	}
	consistent := false
	for _, loc := range locs {
		e.rttChecks++
		if e.consistent(t.RH.Router, loc.Pos) {
			consistent = true
			break
		}
	}
	if !consistent {
		return OutcomeFP, ext.Hint
	}
	// The extraction is plausible; penalise a missed state/country
	// annotation that stage 2 tagged as part of this apparent geohint.
	for i := range t.Apparent {
		tag := &t.Apparent[i]
		if tag.Text != ext.Hint {
			continue
		}
		if tag.Country != "" && ext.Country == "" {
			return OutcomeFN, ext.Hint
		}
		if tag.State != "" && ext.State == "" && tag.Country == "" {
			// State-only conventions; when a country is present the
			// country annotation dominates.
			return OutcomeFN, ext.Hint
		}
		break
	}
	return OutcomeTP, ext.Hint
}

// hostOutcome records how an NC classified one hostname.
type hostOutcome struct {
	Outcome  Outcome
	Hint     string // extracted geohint (TP/FP/UNK)
	RegexIdx int    // which regex decided (-1 when none matched)
	Ext      rex.Extraction
}

// ncEval is the evaluation of a regex set over a suffix group.
type ncEval struct {
	Tally    Tally
	PerRegex []Tally // per-regex contribution, including unique hints
	// PerHost holds one row per tagged hostname, and only candidate NCs
	// carry it (detail): set building scores many more sets than it
	// keeps, and only stage 4 and the geolocated list read the rows.
	PerHost []hostOutcome
}

// evaluateSet applies an ordered regex set to every tagged hostname: the
// first matching regex decides the hostname's outcome (paper §5.3's NC
// semantics). Per-regex tallies support the set-building requirement
// that every member extract at least three unique geohints. The result
// carries no per-host rows.
func (e *evalCtx) evaluateSet(regexes []*rex.Regex, tagged []*Tagged) ncEval {
	return e.evaluate(regexes, tagged, nil)
}

// detail returns the per-host outcomes of a regex set that set building
// has already evaluated, re-applied through the match memo. The pass
// re-derives outcomes the evaluations and rtt_checks counters already
// counted, so it leaves both as they were. Overrides must not have
// changed since the set's evaluation, or the rows would disagree with
// its tally.
func (e *evalCtx) detail(regexes []*rex.Regex, tagged []*Tagged) []hostOutcome {
	evals, rttChecks := e.evals, e.rttChecks
	perHost := make([]hostOutcome, len(tagged))
	e.evaluate(regexes, tagged, perHost)
	e.evals, e.rttChecks = evals, rttChecks
	return perHost
}

// evaluate is the one evaluation loop behind evaluateSet and detail. It
// records each hostname's outcome in perHost when perHost is not nil.
func (e *evalCtx) evaluate(regexes []*rex.Regex, tagged []*Tagged, perHost []hostOutcome) ncEval {
	ev := ncEval{PerRegex: make([]Tally, len(regexes)), PerHost: perHost}
	for len(e.uniq) <= len(regexes) {
		e.uniq = append(e.uniq, make(map[string]bool))
	}
	for _, u := range e.uniq[:len(regexes)+1] {
		clear(u)
	}
	uniq, perRegexUniq := e.uniq[0], e.uniq[1:]
	memos := make([][]matchEntry, len(regexes))
	for i := range memos {
		memos[i] = e.regexMemo(regexes[i], tagged)
	}

	for hi, t := range tagged {
		decided := false
		for ri, r := range regexes {
			e.evals++
			var ext rex.Extraction
			var ok bool
			if mm := memos[ri]; mm != nil {
				me := &mm[hi]
				if !me.done {
					me.ext, me.ok = r.Match(t.H.Full)
					me.done = true
				}
				ext, ok = me.ext, me.ok
			} else {
				ext, ok = r.Match(t.H.Full)
			}
			if !ok {
				continue
			}
			o, hint := e.outcome(t, ext, true)
			if perHost != nil {
				perHost[hi] = hostOutcome{Outcome: o, Hint: hint, RegexIdx: ri, Ext: ext}
			}
			bump(&ev.Tally, o)
			bump(&ev.PerRegex[ri], o)
			if o == OutcomeTP {
				uniq[hint] = true
				perRegexUniq[ri][hint] = true
			}
			decided = true
			break
		}
		if !decided {
			o, _ := e.outcome(t, rex.Extraction{}, false)
			if perHost != nil {
				perHost[hi] = hostOutcome{Outcome: o, RegexIdx: -1}
			}
			bump(&ev.Tally, o)
		}
	}
	ev.Tally.UniqueHints = len(uniq)
	for i := range regexes {
		ev.PerRegex[i].UniqueHints = len(perRegexUniq[i])
	}
	return ev
}

func bump(t *Tally, o Outcome) {
	switch o {
	case OutcomeTP:
		t.TP++
	case OutcomeFP:
		t.FP++
	case OutcomeFN:
		t.FN++
	case OutcomeUNK:
		t.UNK++
	}
}
