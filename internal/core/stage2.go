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
	Locs []*geodict.Location // RTT-consistent interpretations

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
	consistent := func(loc *geodict.Location) bool {
		tg.rttChecks++
		return tg.in.RTT.Consistent(rh.Router.ID, loc.Pos, tg.cfg.ToleranceMs)
	}

	addTag := func(a Apparent) {
		// Locate annotation codes for the consistent interpretations,
		// never re-using a run the hint itself occupies.
		a.CCSpan, a.CCRun, a.StSpan, a.StRun = -1, -1, -1, -1
		skip := hintRuns(&a)
		for _, loc := range a.Locs {
			cc, ccs, ccr := tg.findCountryToken(h, loc, skip)
			if cc != "" && a.Country == "" {
				a.Country, a.CCSpan, a.CCRun = cc, ccs, ccr
			}
			st, sts, str := tg.findStateToken(h, loc, skip)
			if st != "" && a.State == "" {
				a.State, a.StSpan, a.StRun = st, sts, str
			}
		}
		t.Apparent = append(t.Apparent, a)
	}

	d := tg.in.Dict
	for si := range h.Spans {
		sp := &h.Spans[si]
		for ri := range sp.Runs {
			run := sp.Runs[ri].Text
			base := Apparent{Text: run, SpanIdx: si, RunIdx: ri, Run2Span: -1, Run2Idx: -1}

			switch len(run) {
			case 3:
				var locs []*geodict.Location
				for _, a := range d.IATA(run) {
					if consistent(&a.Loc) {
						loc := a.Loc
						locs = append(locs, &loc)
					}
				}
				if len(locs) > 0 {
					a := base
					a.Type = geodict.HintIATA
					a.Locs = locs
					addTag(a)
				}
			case 4:
				if ap := d.ICAO(run); ap != nil && consistent(&ap.Loc) {
					a := base
					a.Type = geodict.HintICAO
					loc := ap.Loc
					a.Locs = []*geodict.Location{&loc}
					addTag(a)
				}
			case 5:
				if c := d.Locode(run); c != nil && consistent(&c.Loc) {
					a := base
					a.Type = geodict.HintLocode
					loc := c.Loc
					a.Locs = []*geodict.Location{&loc}
					addTag(a)
				}
			}

			// CLLI prefixes: exact six letters, or the first six letters
			// of a longer embedding (paper fig. 6d, alter.net).
			if len(run) >= 6 {
				prefix := run[:6]
				if c := d.CLLI(prefix); c != nil && consistent(&c.Loc) {
					a := base
					a.Type = geodict.HintCLLI
					loc := c.Loc
					a.Locs = []*geodict.Location{&loc}
					a.Text = prefix
					if len(run) > 6 {
						a.PrefixLen = 6
					}
					addTag(a)
				}
			}

			// City/town names, exact normalized match (min length 4 to
			// avoid swamping three-letter codes).
			if len(run) >= 4 {
				var locs []*geodict.Location
				for _, loc := range d.Place(run) {
					if consistent(loc) {
						locs = append(locs, loc)
					}
				}
				if len(locs) > 0 {
					a := base
					a.Type = geodict.HintPlace
					a.Locs = locs
					addTag(a)
				}
			}
		}

		// Facility street addresses: spans mixing digits and letters
		// ("529bryant"), matched against PeeringDB-style records.
		if sp.HasDigit() && len(sp.Runs) > 0 && len(sp.Text) >= 4 {
			var locs []*geodict.Location
			for _, f := range d.FacilityByAddress(sp.Text) {
				if consistent(&f.Loc) {
					loc := f.Loc
					locs = append(locs, &loc)
				}
			}
			if len(locs) > 0 {
				a := Apparent{
					Text: sp.Text, Type: geodict.HintFacility, Locs: locs,
					SpanIdx: si, RunIdx: -1, Run2Span: -1, Run2Idx: -1,
				}
				addTag(a)
			}
		}
	}

	// Split CLLI prefixes: adjacent 4- and 2-letter runs across a span
	// boundary (paper fig. 6e, Windstream).
	tg.tagSplitCLLI(t, consistent)
	return t
}

// tagSplitCLLI finds 4+2 split CLLI prefixes in adjacent spans.
func (tg *tagger) tagSplitCLLI(t *Tagged, consistent func(*geodict.Location) bool) {
	h := t.H
	for si := 0; si+1 < len(h.Spans); si++ {
		a, b := &h.Spans[si], &h.Spans[si+1]
		if len(a.Runs) == 0 || len(b.Runs) == 0 {
			continue
		}
		// Spans must be adjacent within the same label.
		if a.Label != b.Label {
			continue
		}
		ra := a.Runs[len(a.Runs)-1]
		rb := b.Runs[0]
		if len(ra.Text) != 4 || len(rb.Text) != 2 {
			continue
		}
		prefix := ra.Text + rb.Text
		c := tg.in.Dict.CLLI(prefix)
		if c == nil || !consistent(&c.Loc) {
			continue
		}
		loc := c.Loc
		tag := Apparent{
			Text: prefix, Type: geodict.HintCLLI,
			Locs:    []*geodict.Location{&loc},
			SpanIdx: si, RunIdx: len(a.Runs) - 1,
			Run2Span: si + 1, Run2Idx: 0,
			CCSpan: -1, CCRun: -1, StSpan: -1, StRun: -1,
		}
		skip := hintRuns(&tag)
		cc, ccs, ccr := tg.findCountryToken(h, &loc, skip)
		if cc != "" {
			tag.Country, tag.CCSpan, tag.CCRun = cc, ccs, ccr
		}
		st, sts, str := tg.findStateToken(h, &loc, skip)
		if st != "" {
			tag.State, tag.StSpan, tag.StRun = st, sts, str
		}
		t.Apparent = append(t.Apparent, tag)
	}
}

// hintRuns returns the (span, run) pairs a tag's hint occupies, which
// annotation scanning must skip.
func hintRuns(a *Apparent) map[[2]int]bool {
	skip := map[[2]int]bool{{a.SpanIdx, a.RunIdx}: true}
	if a.Run2Span >= 0 {
		skip[[2]int{a.Run2Span, a.Run2Idx}] = true
	}
	return skip
}

// findCountryToken searches the hostname's other runs for a token that
// denotes loc's country (including aliases: "uk" for GB). It returns the
// token and its span/run indices, or "" when absent.
func (tg *tagger) findCountryToken(h *hostname.Hostname, loc *geodict.Location, skip map[[2]int]bool) (string, int, int) {
	if loc.Country == "" {
		return "", -1, -1
	}
	for si := range h.Spans {
		for ri := range h.Spans[si].Runs {
			if skip[[2]int{si, ri}] {
				continue
			}
			tok := h.Spans[si].Runs[ri].Text
			if len(tok) < 2 || len(tok) > 3 {
				continue
			}
			if tg.in.Dict.CountryEquivalent(tok, loc.Country) {
				return tok, si, ri
			}
		}
	}
	return "", -1, -1
}

// findStateToken searches for a token denoting loc's state/region.
func (tg *tagger) findStateToken(h *hostname.Hostname, loc *geodict.Location, skip map[[2]int]bool) (string, int, int) {
	if loc.Region == "" {
		return "", -1, -1
	}
	for si := range h.Spans {
		for ri := range h.Spans[si].Runs {
			if skip[[2]int{si, ri}] {
				continue
			}
			tok := h.Spans[si].Runs[ri].Text
			if len(tok) < 2 || len(tok) > 3 {
				continue
			}
			if tg.in.Dict.StateEquivalent(tok, loc.Country, loc.Region) {
				return tok, si, ri
			}
		}
	}
	return "", -1, -1
}
