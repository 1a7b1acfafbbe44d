// Package psl implements the Mozilla Public Suffix List algorithm
// (paper §5.1.2). Hoiho groups router hostnames by their registrable
// domain suffix — the label immediately below an effective top-level
// domain — so that each operator's naming convention is learned over the
// hostnames that operator controls (cogentco.com, ccnw.net.au, ...).
//
// The rule semantics follow publicsuffix.org: a rule matches when its
// labels equal the rightmost labels of the domain; "*" matches exactly
// one label; exception rules beginning with "!" override wildcard rules;
// the prevailing rule is the matching rule with the most labels (with
// exceptions always prevailing); and if no rule matches the implicit
// rule "*" applies.
package psl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
)

// List is a parsed public suffix list.
type List struct {
	rules     map[string]ruleKind // key: rule labels joined by "."
	maxLabels int                 // most labels in any key of rules
}

type ruleKind uint8

const (
	ruleNormal ruleKind = iota
	ruleWildcard
	ruleException
)

// Parse reads a public suffix list in the standard text format: one rule
// per line, comments beginning with "//", blank lines ignored.
func Parse(r io.Reader) (*List, error) {
	l := &List{rules: make(map[string]ruleKind)}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "//") {
			continue
		}
		// Rules are the first whitespace-separated token.
		if i := strings.IndexAny(text, " \t"); i >= 0 {
			text = text[:i]
		}
		if err := l.addRule(text); err != nil {
			return nil, fmt.Errorf("psl: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

// MustParse parses rules from a string, panicking on error; for tests.
func MustParse(rules string) *List {
	l, err := Parse(strings.NewReader(rules))
	if err != nil {
		panic(err)
	}
	return l
}

func (l *List) addRule(rule string) error {
	kind := ruleNormal
	if strings.HasPrefix(rule, "!") {
		kind = ruleException
		rule = rule[1:]
	} else if strings.HasPrefix(rule, "*.") {
		kind = ruleWildcard
		rule = rule[2:]
	} else if rule == "*" {
		return errors.New(`bare "*" rule not supported`)
	}
	rule = strings.ToLower(strings.Trim(rule, "."))
	if rule == "" {
		return errors.New("empty rule")
	}
	l.rules[rule] = kind
	if n := strings.Count(rule, ".") + 1; n > l.maxLabels {
		l.maxLabels = n
	}
	return nil
}

// PublicSuffix returns the effective public suffix of domain per the PSL
// algorithm. The domain must be a hostname without a trailing dot; the
// result is always non-empty for a non-empty domain (the implicit "*"
// rule makes the rightmost label a public suffix when nothing matches).
// The result is a substring of the input when the input is lower case.
func (l *List) PublicSuffix(domain string) string {
	return l.publicSuffix(normalize(domain))
}

// normalize strips leading and trailing dots and lowers the case. Both
// steps return their input, unallocated, when it needs no change.
func normalize(domain string) string {
	return strings.ToLower(strings.Trim(domain, "."))
}

// publicSuffix is PublicSuffix on a normalized domain. It probes the
// rule map with each label-aligned suffix of domain, longest first,
// skipping suffixes with more labels than any rule, and returns a
// substring of domain, so it allocates nothing.
func (l *List) publicSuffix(domain string) string {
	if domain == "" || strings.Contains(domain, "..") {
		// Empty labels make the domain invalid.
		return ""
	}
	// The suffix of domain at offset start has n labels; prev is the
	// offset of the label before it. Suffixes with more labels than any
	// rule cannot match, so the walk starts below them.
	start, prev := 0, 0
	n := strings.Count(domain, ".") + 1
	for ; n > l.maxLabels && n > 1; n-- {
		prev, start = start, start+strings.IndexByte(domain[start:], '.')+1
	}
	bestLen := 0 // labels in prevailing suffix
	best := 0    // its offset in domain
	// Consider every suffix of the domain, longest rules prevail.
	for ; ; n-- {
		if kind, ok := l.rules[domain[start:]]; ok {
			switch kind {
			case ruleException:
				// Exception: the public suffix is the rule with its
				// leftmost label removed.
				if i := strings.IndexByte(domain[start:], '.'); i >= 0 {
					return domain[start+i+1:]
				}
				return ""
			case ruleNormal:
				if n > bestLen {
					bestLen, best = n, start
				}
			case ruleWildcard:
				// The wildcard rule itself (*.foo) matches bar.foo;
				// the matched suffix has one more label than the rule.
				if start > 0 && n+1 > bestLen {
					bestLen, best = n+1, prev
				}
			}
		}
		i := strings.IndexByte(domain[start:], '.')
		if i < 0 {
			break
		}
		prev, start = start, start+i+1
	}
	if bestLen == 0 {
		return domain[strings.LastIndexByte(domain, '.')+1:] // implicit "*" rule
	}
	return domain[best:]
}

// RegistrableDomain returns the public suffix plus one label — the
// domain an operator registers, which Hoiho uses to group hostnames
// ("e0-0.cr1.lhr1.ntt.net" → "ntt.net"). It returns "" when the domain
// is itself a public suffix or empty. Like PublicSuffix, it returns a
// substring of a lower-case input and allocates nothing for one.
func (l *List) RegistrableDomain(domain string) string {
	domain = normalize(domain)
	suffix := l.publicSuffix(domain)
	if suffix == "" || suffix == domain {
		return ""
	}
	// suffix is a label-aligned tail of domain; keep one more label.
	rest := domain[:len(domain)-len(suffix)-1]
	return domain[strings.LastIndexByte(rest, '.')+1:]
}
