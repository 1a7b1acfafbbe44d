// Package undns reimplements the undns rule engine from Rocketfuel
// (Spring et al., SIGCOMM 2002) as the paper describes it (§3.2):
// manually-assembled per-suffix regexes whose captured code is looked up
// in a per-rule table mapping codes to location names. Because humans
// curated each entry, precision is very high (the paper measured 98.3%
// PPV) — but the database covers only a subset of each suffix's codes
// and stopped being updated in 2014, so coverage is poor.
//
// The ruleset format is line-oriented:
//
//	suffix <domain>
//	rule <regex-with-one-capture>
//	map <code> <city>|<region>|<country>
//
// A Builder also constructs rulesets programmatically; the evaluation
// harness uses it to synthesise an "old, partial, hand-curated" ruleset
// from a past corpus, mirroring how undns would have covered a network
// years ago.
package undns

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strings"
	"sync"

	"hoiho/internal/geodict"
)

// compiledRules caches compiled rule regexes by pattern text,
// process-wide: the evaluation harness re-parses the published ruleset
// per figure and synthesises rulesets that share rule shapes, so each
// distinct pattern compiles exactly once per process rather than once
// per load.
var compiledRules sync.Map // pattern string -> *regexp.Regexp

// compileRule returns the cached compiled form of a rule pattern,
// enforcing the exactly-one-capture contract shared by AddRule and
// Parse. Patterns that fail either check are not cached.
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

// Suffixes returns the number of suffixes with at least one rule.
func (rs *RuleSet) Suffixes() int { return len(rs.Rules) }

// Parse reads a ruleset in the text format described in the package
// comment. Coordinates for locations are resolved through the supplied
// dictionary's place table; unknown places are an error (the curated
// database always named real places).
func Parse(r io.Reader, dict *geodict.Dictionary) (*RuleSet, error) {
	rs := NewRuleSet()
	sc := bufio.NewScanner(r)
	var suffix string
	var current *Rule
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.SplitN(text, " ", 2)
		if len(fields) != 2 {
			return nil, fmt.Errorf("undns: line %d: malformed", line)
		}
		switch fields[0] {
		case "suffix":
			suffix = fields[1]
			current = nil
		case "rule":
			if suffix == "" {
				return nil, fmt.Errorf("undns: line %d: rule before suffix", line)
			}
			re, err := compileRule(fields[1])
			if err != nil {
				return nil, fmt.Errorf("undns: line %d: %w", line, err)
			}
			current = &Rule{Re: re, Codes: make(map[string]*geodict.Location)}
			rs.Rules[suffix] = append(rs.Rules[suffix], current)
		case "map":
			if current == nil {
				return nil, fmt.Errorf("undns: line %d: map before rule", line)
			}
			parts := strings.SplitN(fields[1], " ", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("undns: line %d: malformed map", line)
			}
			trip := strings.Split(parts[1], "|")
			if len(trip) != 3 {
				return nil, fmt.Errorf("undns: line %d: location must be city|region|country", line)
			}
			loc := findPlace(dict, trip[0], trip[1], trip[2])
			if loc == nil {
				return nil, fmt.Errorf("undns: line %d: unknown place %q", line, parts[1])
			}
			current.Codes[parts[0]] = loc
		default:
			return nil, fmt.Errorf("undns: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rs, nil
}

func findPlace(dict *geodict.Dictionary, city, region, country string) *geodict.Location {
	for _, loc := range dict.Locations(geodict.HintPlace, city) {
		if loc.Region == region && loc.Country == country {
			return loc
		}
	}
	return nil
}
