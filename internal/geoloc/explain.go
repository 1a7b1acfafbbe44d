package geoloc

import (
	"fmt"
	"strconv"
	"strings"

	"hoiho/internal/core"
)

// Resolution names for an ExplainStep that matched.
const (
	// ResolutionLearned: the hint resolved through the convention's
	// stage-4 learned geohints, which take precedence over the
	// dictionary.
	ResolutionLearned = "learned-overlay"
	// ResolutionDictionary: the hint resolved through the reference
	// dictionary, possibly disambiguated across interpretations.
	ResolutionDictionary = "dictionary"
	// ResolutionUnresolved: the regex matched but the extracted string
	// resolved to no location. Per the paper's application rule the
	// first matching regex decides, so this is a terminal miss, not a
	// fall-through to later regexes.
	ResolutionUnresolved = "unresolved"
)

// resolutions names each cause of a decision whose regex matched.
var resolutions = [...]string{
	core.CauseUnresolved: ResolutionUnresolved,
	core.CauseLearned:    ResolutionLearned,
	core.CauseDictionary: ResolutionDictionary,
}

// ExplainLocation is the location payload of an explanation, with the
// /v1 JSON field names so explain output is mechanically comparable to
// geolocate output.
type ExplainLocation struct {
	City       string  `json:"city"`
	Region     string  `json:"region,omitempty"`
	Country    string  `json:"country"`
	Lat        float64 `json:"lat"`
	Long       float64 `json:"long"`
	Population int     `json:"population,omitempty"`
}

// ExplainStep traces one candidate regex of the dispatched convention,
// in the convention's learned preference order.
type ExplainStep struct {
	// Pattern is the regex in its published string form.
	Pattern string `json:"pattern"`
	// HintType is the dictionary the regex's hint capture targets.
	HintType string `json:"hint_type"`
	// Matched reports whether the regex matched the hostname. When
	// false the remaining fields are empty and the next regex was tried.
	Matched bool `json:"matched"`
	// Hint, State, Country echo the extraction's captures.
	Hint    string `json:"hint,omitempty"`
	State   string `json:"state,omitempty"`
	Country string `json:"country,omitempty"`
	// Resolution says how the extraction was interpreted: one of the
	// Resolution* constants.
	Resolution string `json:"resolution,omitempty"`
	// Candidates counts dictionary interpretations that survived
	// annotation filtering, before disambiguation (dictionary path only).
	Candidates int `json:"candidates,omitempty"`
	// LearnedTP/LearnedFP/LearnedCollide echo the congruence evidence
	// behind a learned-geohint resolution.
	LearnedTP      int  `json:"learned_tp,omitempty"`
	LearnedFP      int  `json:"learned_fp,omitempty"`
	LearnedCollide bool `json:"learned_collide,omitempty"`
	// Location is the resolved answer in "City, REGION, CC" form.
	Location string `json:"location,omitempty"`
}

// ExplainConvention summarizes the dispatched convention's published
// evidence: its classification and the tally behind its PPV, the
// paper's per-convention confidence measure.
type ExplainConvention struct {
	Class       string  `json:"class"`
	PPV         float64 `json:"ppv"`
	TP          int     `json:"tp"`
	FP          int     `json:"fp"`
	FN          int     `json:"fn"`
	UNK         int     `json:"unk"`
	UniqueHints int     `json:"unique_hints"`
	Regexes     int     `json:"regexes"`
	Learned     int     `json:"learned_hints"`
}

// Explanation is the full decision trace for one lookup: suffix
// dispatch, each candidate regex tried, how the extraction resolved,
// and the final geohint with the convention's published evidence. The
// struct's field order is its canonical JSON rendering order.
type Explanation struct {
	Hostname   string `json:"hostname"`
	Normalized string `json:"normalized"`
	Suffix     string `json:"suffix"`
	// Indexed reports whether a convention is indexed for the suffix;
	// when false the trace ends at dispatch.
	Indexed    bool               `json:"indexed"`
	Convention *ExplainConvention `json:"convention,omitempty"`
	Steps      []ExplainStep      `json:"steps,omitempty"`
	// Located is the lookup verdict; the fields below are set only when
	// true and match what Lookup would return.
	Located  bool             `json:"located"`
	Hint     string           `json:"hint,omitempty"`
	HintType string           `json:"hint_type,omitempty"`
	Learned  bool             `json:"learned,omitempty"`
	Location *ExplainLocation `json:"location,omitempty"`
}

// Explain traces the lookup decision for one hostname. It dispatches
// as Lookup does and rebuilds its steps from the same core.Decide
// verdict — every regex before the decision's did not match — but
// bypasses the result cache and the Stats counters: an explanation is
// diagnostic traffic, not serving load, and must show the decision even
// when the answer is memoized.
func (ix *Index) Explain(hostname string) *Explanation {
	ex := &Explanation{Hostname: hostname, Normalized: normalize(hostname)}
	ex.Suffix = ix.list.RegistrableDomain(ex.Normalized)
	c := ix.convs[ex.Suffix]
	if c == nil {
		return ex
	}
	ex.Indexed = true
	nc := c.nc
	ex.Convention = &ExplainConvention{
		Class:       nc.Class.String(),
		PPV:         nc.Tally.PPV(),
		TP:          nc.Tally.TP,
		FP:          nc.Tally.FP,
		FN:          nc.Tally.FN,
		UNK:         nc.Tally.UNK,
		UniqueHints: nc.Tally.UniqueHints,
		Regexes:     len(nc.Regexes),
		Learned:     len(nc.Learned),
	}
	d := core.Decide(nc, ix.dict, ex.Normalized)
	for _, r := range nc.Regexes[:d.Regex] {
		ex.Steps = append(ex.Steps, ExplainStep{Pattern: r.String(), HintType: r.Hint.String()})
	}
	if d.Cause == core.CauseNoMatch {
		return ex
	}
	r, ext := nc.Regexes[d.Regex], d.Extraction
	step := ExplainStep{
		Pattern: r.String(), HintType: r.Hint.String(), Matched: true,
		Hint: ext.Hint, State: ext.State, Country: ext.Country,
		Resolution: resolutions[d.Cause], Candidates: d.Candidates,
	}
	if lh := d.Learned; lh != nil {
		step.LearnedTP, step.LearnedFP, step.LearnedCollide = lh.TP, lh.FP, lh.Collide
	}
	if loc := d.Loc; loc != nil {
		step.Location = loc.String()
		ex.Located = true
		ex.Hint = ext.Hint
		ex.HintType = ext.Type.String()
		ex.Learned = d.Cause == core.CauseLearned
		ex.Location = &ExplainLocation{
			City:       loc.City,
			Region:     loc.Region,
			Country:    loc.Country,
			Lat:        loc.Pos.Lat,
			Long:       loc.Pos.Long,
			Population: loc.Population,
		}
	}
	ex.Steps = append(ex.Steps, step)
	return ex
}

// Text renders the explanation as a deterministic human-readable
// report — the byte-for-byte form `hoiho -explain` prints and the
// golden test pins. Floats render with strconv's shortest form so the
// text and JSON renderings of the same value always agree.
func (ex *Explanation) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hostname:   %s\n", ex.Hostname)
	if ex.Normalized != ex.Hostname {
		fmt.Fprintf(&b, "normalized: %s\n", ex.Normalized)
	}
	fmt.Fprintf(&b, "suffix:     %s\n", ex.Suffix)
	if !ex.Indexed {
		b.WriteString("verdict:    no convention indexed for suffix\n")
		return b.String()
	}
	cv := ex.Convention
	fmt.Fprintf(&b, "convention: %s (PPV %s; TP %d FP %d FN %d UNK %d; %d unique hints; %d regexes, %d learned hints)\n",
		cv.Class, formatFloat(cv.PPV), cv.TP, cv.FP, cv.FN, cv.UNK, cv.UniqueHints, cv.Regexes, cv.Learned)
	for i, st := range ex.Steps {
		fmt.Fprintf(&b, "regex %d:    %s (%s)\n", i+1, st.Pattern, st.HintType)
		if !st.Matched {
			b.WriteString("            no match\n")
			continue
		}
		fmt.Fprintf(&b, "            matched hint=%q", st.Hint)
		if st.State != "" {
			fmt.Fprintf(&b, " state=%q", st.State)
		}
		if st.Country != "" {
			fmt.Fprintf(&b, " country=%q", st.Country)
		}
		b.WriteByte('\n')
		switch st.Resolution {
		case ResolutionLearned:
			fmt.Fprintf(&b, "            learned overlay: %s (TP %d FP %d", st.Location, st.LearnedTP, st.LearnedFP)
			if st.LearnedCollide {
				b.WriteString("; collides with dictionary")
			}
			b.WriteString(")\n")
		case ResolutionDictionary:
			fmt.Fprintf(&b, "            dictionary: %d interpretation(s) -> %s\n", st.Candidates, st.Location)
		case ResolutionUnresolved:
			b.WriteString("            unresolved: extraction not in dictionary (first match decides; miss)\n")
		}
	}
	if !ex.Located {
		b.WriteString("verdict:    not located\n")
		return b.String()
	}
	source := ResolutionDictionary
	if ex.Learned {
		source = ResolutionLearned
	}
	fmt.Fprintf(&b, "verdict:    %s (hint %q, %s, via %s)\n",
		ex.Location.describe(), ex.Hint, ex.HintType, source)
	fmt.Fprintf(&b, "            lat=%s long=%s", formatFloat(ex.Location.Lat), formatFloat(ex.Location.Long))
	if ex.Location.Population > 0 {
		fmt.Fprintf(&b, " population=%d", ex.Location.Population)
	}
	b.WriteByte('\n')
	return b.String()
}

// describe renders the location in the same "city, region, country"
// shape as geodict.Location.String, from the JSON-facing fields.
func (l *ExplainLocation) describe() string {
	parts := []string{l.City}
	if l.Region != "" {
		parts = append(parts, l.Region)
	}
	parts = append(parts, l.Country)
	return strings.Join(parts, ", ")
}

// formatFloat renders a float in shortest round-trip form, matching
// encoding/json's default so the two renderings never disagree.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
