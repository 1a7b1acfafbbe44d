// Package undns reimplements the undns rule engine from Rocketfuel
// (Spring et al., SIGCOMM 2002) as the paper describes it (§3.2):
// manually-assembled per-suffix regexes whose captured code is looked up
// in a per-rule table mapping codes to location names. Because humans
// curated each entry, precision is very high (the paper measured 98.3%
// PPV) — but the database covers only a subset of each suffix's codes
// and stopped being updated in 2014, so coverage is poor.
//
// Rulesets are built with AddRule; the evaluation harness uses it to
// synthesise an "old, partial, hand-curated" ruleset from a past
// corpus, mirroring how undns would have covered a network years ago.
package undns

import (
	"fmt"
	"regexp"
	"strings"
	"sync"

	"hoiho/internal/geodict"
)

// compiledRules caches compiled rule regexes by pattern text,
// process-wide: the evaluation harness synthesises a ruleset per
// figure, and the rulesets share rule shapes, so each distinct pattern
// compiles exactly once per process rather than once per ruleset.
var compiledRules sync.Map // pattern string -> *regexp.Regexp

// compileRule returns the cached compiled form of a rule pattern,
// enforcing AddRule's exactly-one-capture contract. Patterns that fail
// either check are not cached.
func compileRule(pattern string) (*regexp.Regexp, error) {
	if cached, ok := compiledRules.Load(pattern); ok {
		return cached.(*regexp.Regexp), nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	if re.NumSubexp() != 1 {
		return nil, fmt.Errorf("pattern %q must have exactly one capture", pattern)
	}
	compiledRules.Store(pattern, re)
	return re, nil
}

// Rule is one undns regex with its manually-curated code table.
type Rule struct {
	Re    *regexp.Regexp
	Codes map[string]*geodict.Location
}

// RuleSet maps suffixes to their rules.
type RuleSet struct {
	Rules map[string][]*Rule
}

// NewRuleSet returns an empty ruleset.
func NewRuleSet() *RuleSet {
	return &RuleSet{Rules: make(map[string][]*Rule)}
}

// AddRule registers a rule for a suffix. The regex must contain exactly
// one capture group.
func (rs *RuleSet) AddRule(suffix, pattern string, codes map[string]*geodict.Location) error {
	re, err := compileRule(pattern)
	if err != nil {
		return fmt.Errorf("undns: bad pattern %q: %w", pattern, err)
	}
	rs.Rules[suffix] = append(rs.Rules[suffix], &Rule{Re: re, Codes: codes})
	return nil
}

// Geolocate applies the suffix's rules to a hostname. Unlike DRoP and
// HLOC, a match whose code is not in the curated table yields nothing —
// the undns database only answers for codes a human has mapped.
func (rs *RuleSet) Geolocate(host, suffix string) (*geodict.Location, bool) {
	for _, rule := range rs.Rules[suffix] {
		m := rule.Re.FindStringSubmatch(strings.ToLower(host))
		if m == nil {
			continue
		}
		if loc, ok := rule.Codes[m[1]]; ok {
			return loc, true
		}
	}
	return nil, false
}
