package rex

import (
	"sort"
	"strings"
)

// MergeDigits implements phase 2 of the builder (paper appendix A): when
// two regexes differ only because one contains a \d+ component that the
// other lacks — or one has \d+ where the other has \d* — they merge into
// a single regex with \d* at that position, increasing coverage. It
// returns the merged regex and true, or nil and false when the regexes
// are not mergeable.
func MergeDigits(a, b *Regex) (*Regex, bool) {
	if a.Hint != b.Hint {
		return nil, false
	}
	// Same length: allow exactly one position where the pair is
	// {\d+,\d*} in either order; all other components must be equal.
	if len(a.Comps) == len(b.Comps) {
		diff := -1
		for i := range a.Comps {
			if a.Comps[i].equal(b.Comps[i]) {
				continue
			}
			if diff >= 0 {
				return nil, false
			}
			if !digitPair(a.Comps[i], b.Comps[i]) {
				return nil, false
			}
			diff = i
		}
		if diff < 0 {
			return nil, false // identical; nothing to merge
		}
		m := a.Clone()
		m.Comps[diff] = Component{Kind: KindDigitsOpt}
		return m, true
	}
	// Length differs by one: the longer regex must equal the shorter
	// with a single \d+ (or \d*) inserted.
	long, short := a, b
	if len(long.Comps) < len(short.Comps) {
		long, short = short, long
	}
	if len(long.Comps) != len(short.Comps)+1 {
		return nil, false
	}
	for pos := 0; pos < len(long.Comps); pos++ {
		c := long.Comps[pos]
		if c.Kind != KindDigits && c.Kind != KindDigitsOpt {
			continue
		}
		if c.Capture {
			continue
		}
		if prefixEqual(long.Comps[:pos], short.Comps[:pos]) &&
			suffixEqual(long.Comps[pos+1:], short.Comps[pos:]) {
			m := long.Clone()
			m.Comps[pos] = Component{Kind: KindDigitsOpt}
			return m, true
		}
	}
	return nil, false
}

func digitPair(a, b Component) bool {
	if a.Capture || b.Capture {
		return false
	}
	isDigitish := func(c Component) bool {
		return c.Kind == KindDigits || c.Kind == KindDigitsOpt
	}
	return isDigitish(a) && isDigitish(b)
}

func prefixEqual(a, b []Component) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].equal(b[i]) {
			return false
		}
	}
	return true
}

func suffixEqual(a, b []Component) bool { return prefixEqual(a, b) }

// Specialize implements phase 3: replace punctuation-excluding wildcard
// components ([^\.]+, [^-]+, .+) with character-class components that
// describe what the regex actually matched across the hostnames it
// matches. For example a [^\.]+ that always matched digits becomes \d+;
// one that always matched letters-then-digits becomes [a-z]+\d+; one
// that always matched a fixed-width alphabetic string becomes [a-z]{k}.
// Components that matched heterogeneous content are left unchanged. The
// result is a new regex; hostnames that do not match are ignored. If no
// hostname matches, the original regex is returned unchanged.
func Specialize(r *Regex, hostnames []string) *Regex {
	// Gather per-component matched substrings.
	perComp := make([][]string, len(r.Comps))
	matched := 0
	for _, hn := range hostnames {
		parts, ok := r.ComponentMatches(hn)
		if !ok {
			continue
		}
		matched++
		for i, p := range parts {
			perComp[i] = append(perComp[i], p)
		}
	}
	if matched == 0 {
		return r
	}
	out := &Regex{Hint: r.Hint}
	for i, c := range r.Comps {
		if c.Capture || (c.Kind != KindNotDot && c.Kind != KindNotDash && c.Kind != KindAny) {
			out.Comps = append(out.Comps, c)
			continue
		}
		out.Comps = append(out.Comps, classify(c, perComp[i])...)
	}
	return out
}

// classify maps a wildcard component and its observed matches onto one
// or two character-class components, or returns the original. Bytes
// are tested against the matcher's own class tables.
func classify(c Component, matches []string) []Component {
	if len(matches) == 0 {
		return []Component{c}
	}
	allDigits, allAlpha := true, true
	allAlphaDigit := true // ^[a-z]+\d+$
	allAlnum := true
	fixedLen := len(matches[0])
	for _, m := range matches {
		if m == "" {
			return []Component{c}
		}
		alpha := classRun(m, clsAlpha)
		allDigits = allDigits && classRun(m, clsDigit) == len(m)
		allAlpha = allAlpha && alpha == len(m)
		allAlphaDigit = allAlphaDigit && alpha > 0 && alpha < len(m) &&
			classRun(m[alpha:], clsDigit) == len(m)-alpha
		allAlnum = allAlnum && classRun(m, clsAlnum) == len(m)
		if len(m) != fixedLen {
			fixedLen = -1
		}
	}
	switch {
	case allDigits:
		return []Component{{Kind: KindDigits}}
	case allAlpha && fixedLen > 0:
		return []Component{{Kind: KindAlphaFixed, N: fixedLen}}
	case allAlpha:
		return []Component{{Kind: KindAlpha}}
	case allAlphaDigit:
		return []Component{{Kind: KindAlpha}, {Kind: KindDigits}}
	case allAlnum:
		return []Component{{Kind: KindAlnum}}
	default:
		return []Component{c}
	}
}

// Dedupe removes regexes with identical keys, preserving first
// occurrence order.
func Dedupe(res []*Regex) []*Regex {
	seen := make(map[string]bool, len(res))
	out := res[:0]
	for _, r := range res {
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// SortStable sorts regexes by rendering for deterministic output.
func SortStable(res []*Regex) {
	sort.SliceStable(res, func(i, j int) bool {
		if res[i].Hint != res[j].Hint {
			return res[i].Hint < res[j].Hint
		}
		return strings.Compare(res[i].String(), res[j].String()) < 0
	})
}
