package core

import (
	"hoiho/internal/geodict"
	"hoiho/internal/hostname"
	"hoiho/internal/itdk"
)

// Apparent is a stage-2 tag: a string in a hostname that the dictionary
// can interpret as a location whose theoretical best-case RTT from every
// vantage point is no larger than the measured RTT (paper §5.2).
type Apparent struct {
	Text string              // the candidate geohint string
	Type geodict.HintType    // dictionary that interpreted it
	Locs []*geodict.Location // RTT-consistent interpretations, the dictionary's own

	// State and Country record annotation codes found elsewhere in the
	// hostname that correspond to an interpretation ("lhr" + "uk"); a
	// regex that fails to extract them is penalised with an FN.
	State   string
	Country string

	// Structural references for the regex builder.
	SpanIdx   int // index into Hostname.Spans of the hint's span
	RunIdx    int // index into span.Runs
	PrefixLen int // >0: hint is the first PrefixLen chars of a longer run
	// Split CLLI: second component's location (-1 when not split).
	Run2Span, Run2Idx int
	// Annotation token positions (-1 when absent).
	CCSpan, CCRun int
	StSpan, StRun int
}

// Tagged pairs a router hostname with its parse and apparent geohints.
type Tagged struct {
	RH       itdk.RouterHostname
	H        *hostname.Hostname
	Apparent []Apparent

	// hasPing is the RTT matrix's HasPing answer for the router, asked
	// once in stage 2 and read by every stage-3 outcome.
	hasPing bool
}

// HasTags reports whether stage 2 found any apparent geohint.
func (t *Tagged) HasTags() bool { return len(t.Apparent) > 0 }

// tagger performs stage-2 identification over one suffix group.
type tagger struct {
	in  Inputs
	cfg Config

	// rttChecks counts speed-of-light consistency tests since the last
	// reset. A plain int on the per-worker tagger, reported to a span
	// only at group boundaries, so counting costs the hot path nothing.
	rttChecks int64
}

// tag parses and tags a single router hostname. It returns nil when the
// hostname cannot be parsed. Routers without RTT samples produce a
// Tagged with no apparent geohints: with no delay constraints the method
// cannot distinguish a geohint from a chance dictionary collision.
func (tg *tagger) tag(rh itdk.RouterHostname) *Tagged {
	h, err := hostname.Parse(rh.Hostname, rh.Suffix)
	if err != nil {
		return nil
	}
	t := &Tagged{RH: rh, H: h, hasPing: tg.in.RTT.HasPing(rh.Router.ID)}
	if !t.hasPing {
		return t
	}
	for si := range h.Spans {
		sp := &h.Spans[si]
		for ri := range sp.Runs {
			run := sp.Runs[ri].Text
			a := Apparent{Text: run, SpanIdx: si, RunIdx: ri, Run2Span: -1, Run2Idx: -1}
			if len(run) < len(codeTypes) {
				tg.add(t, a, codeTypes[len(run)])
			}
			// CLLI prefixes: exact six letters, or the first six letters
			// of a longer embedding (paper fig. 6d, alter.net).
			if len(run) >= 6 {
				c := a
				c.Text = run[:6]
				if len(run) > 6 {
					c.PrefixLen = 6
				}
				tg.add(t, c, geodict.HintCLLI)
			}
			// City/town names, exact normalized match (min length 4 to
			// avoid swamping three-letter codes).
			if len(run) >= 4 {
				tg.add(t, a, geodict.HintPlace)
			}
		}

		// Facility street addresses: spans mixing digits and letters
		// ("529bryant"), matched against PeeringDB-style records.
		if sp.HasDigit() && len(sp.Runs) > 0 && len(sp.Text) >= 4 {
			tg.add(t, Apparent{Text: sp.Text, SpanIdx: si, RunIdx: -1, Run2Span: -1, Run2Idx: -1}, geodict.HintFacility)
		}
	}

	// Split CLLI prefixes: a 4-letter run ending one span and a 2-letter
	// run starting the next, within one label (paper fig. 6e, Windstream).
	for si := 0; si+1 < len(h.Spans); si++ {
		a, b := &h.Spans[si], &h.Spans[si+1]
		if len(a.Runs) == 0 || len(b.Runs) == 0 || a.Label != b.Label {
			continue
		}
		ra, rb := a.Runs[len(a.Runs)-1].Text, b.Runs[0].Text
		if len(ra) == 4 && len(rb) == 2 {
			tg.add(t, Apparent{Text: ra + rb, SpanIdx: si, RunIdx: len(a.Runs) - 1, Run2Span: si + 1, Run2Idx: 0}, geodict.HintCLLI)
		}
	}
	return t
}

// codeTypes names the coded dictionary a run is looked up in by its
// length: IATA for three letters, ICAO for four, UN/LOCODE for five.
// Shorter runs get HintNone, for which Locations finds nothing.
var codeTypes = [...]geodict.HintType{3: geodict.HintIATA, 4: geodict.HintICAO, 5: geodict.HintLocode}

// add looks a.Text up in the dictionary of type typ and, when any
// interpretation is consistent with the router's RTTs, tags the
// hostname with the consistent ones and the annotation codes found
// beside them.
func (tg *tagger) add(t *Tagged, a Apparent, typ geodict.HintType) {
	locs := tg.in.Dict.Locations(typ, a.Text)
	a.Locs = locs[:0]
	for _, loc := range locs {
		tg.rttChecks++
		if tg.in.RTT.Consistent(t.RH.Router.ID, loc.Pos, tg.cfg.ToleranceMs) {
			a.Locs = append(a.Locs, loc)
		}
	}
	if len(a.Locs) == 0 {
		return
	}
	a.Type = typ
	tg.annotate(t.H, &a)
	t.Apparent = append(t.Apparent, a)
}

// annotate records the first two- or three-letter run of the hostname
// that denotes an interpretation's country, and the first that denotes
// its state, trying the interpretations in order and never re-using a
// run the hint itself occupies.
func (tg *tagger) annotate(h *hostname.Hostname, a *Apparent) {
	a.CCSpan, a.CCRun, a.StSpan, a.StRun = -1, -1, -1, -1
	d := tg.in.Dict
	for _, loc := range a.Locs {
		for si := range h.Spans {
			for ri, r := range h.Spans[si].Runs {
				tok := r.Text
				own := (si == a.SpanIdx && ri == a.RunIdx) || (si == a.Run2Span && ri == a.Run2Idx)
				if own || len(tok) < 2 || len(tok) > 3 {
					continue
				}
				if a.Country == "" && d.Agrees(loc, tok, "") {
					a.Country, a.CCSpan, a.CCRun = tok, si, ri
				}
				if a.State == "" && d.Agrees(loc, "", tok) {
					a.State, a.StSpan, a.StRun = tok, si, ri
				}
			}
		}
	}
}
