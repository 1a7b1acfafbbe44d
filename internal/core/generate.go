package core

import (
	"hoiho/internal/geodict"
	"hoiho/internal/hostname"
	"hoiho/internal/rex"
)

// capSpec describes how to render one special (captured) run.
type capSpec struct {
	role      rex.Role
	kind      rex.Kind
	n         int
	prefixLen int // >0: capture only the first prefixLen characters
}

// hintCaptureSpec returns the capture component spec for a geohint type.
func hintCaptureSpec(t geodict.HintType, text string) capSpec {
	switch t {
	case geodict.HintIATA:
		return capSpec{role: rex.RoleHint, kind: rex.KindAlphaFixed, n: 3}
	case geodict.HintICAO:
		return capSpec{role: rex.RoleHint, kind: rex.KindAlphaFixed, n: 4}
	case geodict.HintLocode:
		return capSpec{role: rex.RoleHint, kind: rex.KindAlphaFixed, n: 5}
	case geodict.HintCLLI:
		return capSpec{role: rex.RoleHint, kind: rex.KindAlphaFixed, n: 6}
	case geodict.HintFacility:
		return capSpec{role: rex.RoleHint, kind: rex.KindAlnum}
	default: // place names
		return capSpec{role: rex.RoleHint, kind: rex.KindAlpha}
	}
}

// baseRegexes implements phase 1 of appendix A for one tagged hostname
// and one of its apparent geohints: regexes that extract the geohint
// (and any state/country annotation) at its observed position, with
// structural components for the labels carrying captures,
// punctuation-excluding components for other trailing labels, and both
// a ".+" and a per-label "[^\.]+" variant for the leading labels.
func baseRegexes(t *Tagged, tag Apparent) []*rex.Regex {
	h := t.H

	// Map (span,run) -> capture spec for the hint and annotations.
	specials := make(map[[2]int]capSpec)
	spanCapture := make(map[int]capSpec) // whole-span captures (facility)

	if tag.Type == geodict.HintFacility {
		spanCapture[tag.SpanIdx] = hintCaptureSpec(tag.Type, tag.Text)
	} else if tag.Run2Span >= 0 {
		// Split CLLI: capture 4-letter and 2-letter halves.
		specials[[2]int{tag.SpanIdx, tag.RunIdx}] = capSpec{role: rex.RoleCLLI4, kind: rex.KindAlphaFixed, n: 4}
		specials[[2]int{tag.Run2Span, tag.Run2Idx}] = capSpec{role: rex.RoleCLLI2, kind: rex.KindAlphaFixed, n: 2}
	} else {
		spec := hintCaptureSpec(tag.Type, tag.Text)
		spec.prefixLen = tag.PrefixLen
		specials[[2]int{tag.SpanIdx, tag.RunIdx}] = spec
	}
	if tag.CCSpan >= 0 {
		specials[[2]int{tag.CCSpan, tag.CCRun}] = capSpec{
			role: rex.RoleCountry, kind: rex.KindAlphaFixed, n: len(tag.Country)}
	}
	if tag.StSpan >= 0 {
		specials[[2]int{tag.StSpan, tag.StRun}] = capSpec{
			role: rex.RoleState, kind: rex.KindAlphaFixed, n: len(tag.State)}
	}

	// Which labels carry captures?
	specialLabel := make(map[int]bool)
	for key := range specials {
		specialLabel[h.Spans[key[0]].Label] = true
	}
	for si := range spanCapture {
		specialLabel[h.Spans[si].Label] = true
	}
	firstSpecial := len(h.Labels)
	for li := range h.Labels {
		if specialLabel[li] {
			firstSpecial = li
			break
		}
	}
	if firstSpecial == len(h.Labels) {
		return nil
	}

	// Render labels from firstSpecial onward.
	var tail []rex.Component
	for li := firstSpecial; li < len(h.Labels); li++ {
		if li > firstSpecial {
			tail = append(tail, rex.Component{Kind: rex.KindDot})
		}
		if specialLabel[li] {
			tail = append(tail, renderLabel(h, li, specials, spanCapture)...)
		} else {
			tail = append(tail, rex.Component{Kind: rex.KindNotDot})
		}
	}
	tail = append(tail, rex.Component{Kind: rex.KindLiteral, Lit: "." + h.Suffix})

	hintType := tag.Type
	var out []*rex.Regex
	if firstSpecial == 0 {
		out = append(out, rex.New(hintType, tail...))
	} else {
		// Variant A: collapse leading labels into ".+".
		a := []rex.Component{{Kind: rex.KindAny}, {Kind: rex.KindDot}}
		out = append(out, rex.New(hintType, append(a, tail...)...))
		// Variant B: one "[^\.]+" per leading label.
		var b []rex.Component
		for i := 0; i < firstSpecial; i++ {
			b = append(b, rex.Component{Kind: rex.KindNotDot}, rex.Component{Kind: rex.KindDot})
		}
		out = append(out, rex.New(hintType, append(b, tail...)...))
	}
	// Drop structurally invalid candidates.
	valid := out[:0]
	for _, r := range out {
		if r.Validate() == nil {
			valid = append(valid, r)
		}
	}
	return valid
}

// renderLabel renders one label structurally: captured runs become
// capture groups, other alphabetic runs become [a-z]+, digit gaps become
// \d+, and span separators become dashes.
func renderLabel(h *hostname.Hostname, labelIdx int, specials map[[2]int]capSpec, spanCapture map[int]capSpec) []rex.Component {
	var comps []rex.Component
	first := true
	for si := range h.Spans {
		sp := &h.Spans[si]
		if sp.Label != labelIdx {
			continue
		}
		if !first {
			comps = append(comps, rex.Component{Kind: rex.KindDash})
		}
		first = false
		if spec, ok := spanCapture[si]; ok {
			comps = append(comps, rex.Component{
				Kind: spec.kind, N: spec.n, Capture: true, Role: spec.role})
			continue
		}
		comps = append(comps, renderSpan(sp, si, specials)...)
	}
	return comps
}

// renderSpan renders the alternating alpha/digit structure of a span.
func renderSpan(sp *hostname.Span, spanIdx int, specials map[[2]int]capSpec) []rex.Component {
	var comps []rex.Component
	text := sp.Text
	i := 0
	runIdx := 0
	for i < len(text) {
		c := text[i]
		switch {
		case c >= 'a' && c <= 'z':
			j := i
			for j < len(text) && text[j] >= 'a' && text[j] <= 'z' {
				j++
			}
			runLen := j - i
			if spec, ok := specials[[2]int{spanIdx, runIdx}]; ok {
				if spec.prefixLen > 0 && spec.prefixLen < runLen {
					// Capture the prefix; the remainder generalises to
					// a variable alphabetic sequence.
					comps = append(comps,
						rex.Component{Kind: spec.kind, N: spec.n, Capture: true, Role: spec.role},
						rex.Component{Kind: rex.KindAlpha})
				} else {
					comps = append(comps, rex.Component{
						Kind: spec.kind, N: spec.n, Capture: true, Role: spec.role})
				}
			} else {
				comps = append(comps, rex.Component{Kind: rex.KindAlpha})
			}
			runIdx++
			i = j
		case c >= '0' && c <= '9':
			j := i
			for j < len(text) && text[j] >= '0' && text[j] <= '9' {
				j++
			}
			comps = append(comps, rex.Component{Kind: rex.KindDigits})
			i = j
		default:
			// Unexpected byte inside a span; be conservative.
			comps = append(comps, rex.Component{Kind: rex.KindNotDot})
			i++
		}
	}
	return comps
}

// MaxCandidates caps a suffix group's deduplicated base regexes before
// the merge and specialization phases, keeping runtime bounded on
// adversarial corpora. The cap is this implementation's, not the
// paper's.
const MaxCandidates = 4000

// generateCandidates runs phases 1-3 over a suffix group's tagged
// hostnames: base regexes for every apparent geohint, digit-merges of
// similar pairs, and character-class specializations, deduplicated.
// The pipeline passes MaxCandidates as maxCandidates.
func generateCandidates(tagged []*Tagged, maxCandidates int) []*rex.Regex {
	var pool []*rex.Regex
	for _, t := range tagged {
		for _, tag := range t.Apparent {
			pool = append(pool, baseRegexes(t, tag)...)
		}
	}
	pool = rex.Dedupe(pool)
	rex.SortStable(pool)
	if len(pool) > maxCandidates {
		pool = pool[:maxCandidates]
	}

	// Phase 2: digit merges. Only regexes with the same hint type can
	// merge; quadratic in the pool but cheap per comparison.
	var merged []*rex.Regex
	for i := 0; i < len(pool); i++ {
		for j := i + 1; j < len(pool); j++ {
			if m, ok := rex.MergeDigits(pool[i], pool[j]); ok {
				merged = append(merged, m)
			}
		}
	}
	pool = rex.Dedupe(append(pool, merged...))

	// Phase 3: embed character classes using the group's hostnames.
	hostnames := make([]string, 0, len(tagged))
	for _, t := range tagged {
		hostnames = append(hostnames, t.H.Full)
	}
	var specialized []*rex.Regex
	for _, r := range pool {
		s := rex.Specialize(r, hostnames)
		if s != r && s.Validate() == nil {
			specialized = append(specialized, s)
		}
	}
	pool = rex.Dedupe(append(pool, specialized...))
	rex.SortStable(pool)
	if len(pool) > maxCandidates {
		pool = pool[:maxCandidates]
	}
	return pool
}
