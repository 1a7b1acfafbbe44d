// Package core implements the paper's primary contribution: the
// five-stage method that learns naming conventions (NCs) — sets of
// regexes — which extract and interpret geographic hints from router
// hostnames (paper §5).
//
// Stage 1 assembles inputs (dictionary, public suffix list, topology
// corpus, RTT matrix); stage 2 identifies apparent geohints in hostnames
// by joint dictionary and RTT-consistency search; stage 3 builds and
// evaluates candidate regexes; stage 4 learns operator-specific geohints
// that deviate from the dictionaries; stage 5 ranks regex sets into a
// final per-suffix NC and classifies it good, promising, or poor.
package core

import (
	"fmt"
	"sort"

	"hoiho/internal/geodict"
	"hoiho/internal/itdk"
	"hoiho/internal/obs"
	"hoiho/internal/psl"
	"hoiho/internal/rex"
	"hoiho/internal/rtt"
)

// Config collects the settings a caller varies: the stage-4 settings
// the ablations of DESIGN.md §4 change, the worker count and the
// tracer. DefaultConfig returns the values the paper uses; the paper's
// fixed thresholds are constants beside the code that reads them.
type Config struct {
	// LearnCongruentNoCC is how many congruent routers a learned hint
	// needs when no state or country code was extracted with it (paper
	// §5.4: three; LearnCongruentCC applies otherwise).
	LearnCongruentNoCC int

	// Workers bounds how many suffix groups Run learns concurrently.
	// 0 (the default) uses runtime.GOMAXPROCS(0); 1 reproduces the
	// sequential pipeline. Per-suffix learning is independent and the
	// merge is suffix-ordered, so the Result is identical for any
	// worker count.
	Workers int

	// LearnHints enables stage 4 (disabled for the §6.1 ablation).
	LearnHints bool

	// LearnRankFacility and LearnRankPopulation control the candidate
	// ranking priors of stage 4 (§5.4: facility presence first, then
	// population, then congruent routers). Disabling them is the
	// design-choice ablation DESIGN.md §4 calls out.
	LearnRankFacility   bool
	LearnRankPopulation bool

	// Tracer, when non-nil, records hierarchical spans and counters for
	// the run (see internal/obs). The nil default disables tracing at
	// zero cost: instrumentation points call nil-safe no-ops and the hot
	// paths allocate nothing extra.
	Tracer *obs.Tracer
}

// DefaultConfig returns the settings from the paper.
func DefaultConfig() Config {
	return Config{
		LearnCongruentNoCC:  3,
		LearnHints:          true,
		LearnRankFacility:   true,
		LearnRankPopulation: true,
	}
}

// Inputs bundles the stage-1 data sources.
type Inputs struct {
	Dict   *geodict.Dictionary
	PSL    *psl.List
	Corpus *itdk.Corpus
	RTT    *rtt.Matrix
}

// Outcome is the per-hostname classification of a regex extraction
// (paper §5.3).
type Outcome int

// Outcomes. OutcomeNone means the regex did not match a hostname that
// carried no apparent geohint — such hostnames do not count against a
// convention.
const (
	OutcomeNone Outcome = iota
	OutcomeTP           // plausible geohint, required annotations extracted
	OutcomeFP           // extracted geohint not RTT-consistent
	OutcomeFN           // missed an apparent geohint or its annotation
	OutcomeUNK          // extracted string not in the dictionary
)

// String returns the outcome abbreviation used in the paper.
func (o Outcome) String() string {
	switch o {
	case OutcomeNone:
		return "-"
	case OutcomeTP:
		return "TP"
	case OutcomeFP:
		return "FP"
	case OutcomeFN:
		return "FN"
	case OutcomeUNK:
		return "UNK"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Tally aggregates outcomes for a regex or NC.
type Tally struct {
	TP, FP, FN, UNK int
	// UniqueHints counts distinct RTT-consistent geohint strings the
	// convention extracted — the paper requires at least three.
	UniqueHints int
}

// ATP is the Absolute True Positive score: TP - (FP + FN + UNK)
// (paper §5.5).
func (t Tally) ATP() int { return t.TP - (t.FP + t.FN + t.UNK) }

// PPV is the positive predictive value TP / (TP + FP); 0 when undefined.
func (t Tally) PPV() float64 {
	if t.TP+t.FP == 0 {
		return 0
	}
	return float64(t.TP) / float64(t.TP+t.FP)
}

// Classification buckets NCs by quality (paper §5.5).
type Classification int

// NC classifications. Good and Promising NCs are "usable".
const (
	Poor Classification = iota
	Promising
	Good
)

// String returns the classification name.
func (c Classification) String() string {
	switch c {
	case Good:
		return "good"
	case Promising:
		return "promising"
	case Poor:
		return "poor"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Usable reports whether the classification is good or promising.
func (c Classification) Usable() bool { return c != Poor }

// LearnedHint is a stage-4 inference: within a suffix, an operator uses
// hint (of the given type) to mean Loc, overriding or extending the
// reference dictionary.
type LearnedHint struct {
	Suffix  string
	Hint    string
	Type    geodict.HintType
	Loc     *geodict.Location
	TP, FP  int  // congruence counts backing the inference
	Collide bool // the hint collides with a different dictionary entry
}

// String renders "ash -> Ashburn, VA, US (iata)".
func (l *LearnedHint) String() string {
	return fmt.Sprintf("%s -> %s (%s)", l.Hint, l.Loc.String(), l.Type)
}

// NamingConvention is the final learned convention for a suffix: one or
// more regexes, the learned hint overrides, and its evaluation.
type NamingConvention struct {
	Suffix  string
	Regexes []*rex.Regex
	Learned []*LearnedHint
	Tally   Tally
	Class   Classification

	// AnnotatesState / AnnotatesCountry record whether the convention
	// extracts state or country codes alongside the geohint (Table 4).
	AnnotatesState   bool
	AnnotatesCountry bool
}

// noteAnnotations sets AnnotatesState or AnnotatesCountry when r
// extracts a state or country code; the pipeline and ReadConventions
// call it for every regex of the convention.
func (nc *NamingConvention) noteAnnotations(r *rex.Regex) {
	for _, role := range r.Roles() {
		switch role {
		case rex.RoleState:
			nc.AnnotatesState = true
		case rex.RoleCountry:
			nc.AnnotatesCountry = true
		}
	}
}

// HintTypes returns the distinct geohint types the NC's regexes extract.
func (nc *NamingConvention) HintTypes() []geodict.HintType {
	seen := make(map[geodict.HintType]bool)
	var out []geodict.HintType
	for _, r := range nc.Regexes {
		if !seen[r.Hint] {
			seen[r.Hint] = true
			out = append(out, r.Hint)
		}
	}
	return out
}

// Result is the output of a pipeline run.
type Result struct {
	// NCs maps suffix to the selected naming convention; suffixes where
	// no convention was learnable are absent.
	NCs map[string]*NamingConvention
	// SuffixesWithGeohint counts suffixes where stage 2 tagged at least
	// one apparent geohint.
	SuffixesWithGeohint int
	// RoutersWithGeohint counts routers with an apparent geohint.
	RoutersWithGeohint int
	// RoutersGeolocated counts routers whose hostname a usable NC
	// extracted a geohint from.
	RoutersGeolocated int
}

// UsableNCs returns the good and promising conventions, sorted by
// suffix so output derived from it is deterministic (the guarantee
// webgen and eval already provide for their own map walks).
func (r *Result) UsableNCs() []*NamingConvention {
	var out []*NamingConvention
	for _, nc := range r.NCs {
		if nc.Class.Usable() {
			out = append(out, nc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Suffix < out[j].Suffix })
	return out
}
