package rex

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"hoiho/internal/geodict"
)

// FuzzParsePattern feeds arbitrary patterns to the published-format
// parser: it must never panic, and anything it accepts must round-trip
// through String() and build a matcher.
func FuzzParsePattern(f *testing.F) {
	f.Add(`^.+\.([a-z]{3})\d+\.alter\.net$`)
	f.Add(`^[^\.]+\.([a-z]+)\d*\.([a-z]{2})\.alter\.net$`)
	f.Add(`^\d+\.[a-z]+\d+\.([a-z]{6})[a-z\d]+-x\.alter\.net$`)
	f.Add(`^(((`)
	f.Add(`^$`)
	f.Add(``)
	f.Add(`^([a-z]{999999})$`)
	f.Fuzz(func(t *testing.T, pattern string) {
		roles := []Role{RoleHint}
		r, err := ParsePattern(geodict.HintIATA, pattern, roles)
		if err != nil {
			return
		}
		if r.String() != pattern {
			t.Fatalf("accepted pattern does not round-trip: %q -> %q", pattern, r.String())
		}
		if err := r.Prepare(); err != nil {
			t.Fatalf("accepted pattern builds no matcher: %q: %v", pattern, err)
		}
	})
}

// fuzzLiterals is the literal-text table FuzzRegexRender draws from:
// grammar-alphabet text plus metacharacters QuoteMeta escapes, so the
// renderer's escaping path is exercised.
var fuzzLiterals = []string{"a", "ge", "xe0", "alter", "_", ".", "+", "net"}

// FuzzRegexRender drives the component-level round trip that
// FuzzParsePattern drives from the string side: arbitrary bytes are
// decoded into a component sequence, and every sequence that passes
// Validate must render to a pattern that reparses (with the same
// roles), re-renders byte-identically, and builds a matcher.
func FuzzRegexRender(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x06, 0x03})                         // ([a-z]{N}) hint capture
	f.Add([]byte{0x03, 0x00, 0x01, 0x00, 0x07, 0x03}) // .+ \. ([a-z]+)
	f.Add([]byte{0x07, 0x03, 0x02, 0x00, 0x07, 0x05}) // split-CLLI pair
	f.Add([]byte{0x00, 0x0a, 0x01, 0x00, 0x00, 0x06})
	f.Add([]byte{0x11, 0x15}) // ([a-z]{70}): longer than a DNS label
	f.Fuzz(func(t *testing.T, data []byte) {
		r := decodeRegex(data)
		if err := r.Validate(); err != nil {
			return
		}
		pattern := r.String()
		parsed, err := ParsePattern(r.Hint, pattern, r.Roles())
		if err != nil {
			t.Fatalf("valid regex %q does not reparse: %v", pattern, err)
		}
		if parsed.String() != pattern {
			t.Fatalf("round trip changed rendering: %q -> %q", pattern, parsed.String())
		}
		if len(parsed.Roles()) != len(r.Roles()) {
			t.Fatalf("round trip changed capture count: %q", pattern)
		}
		if err := r.Prepare(); err != nil {
			t.Fatalf("valid regex %q builds no matcher: %v", pattern, err)
		}
	})
}

// decodeRegex deterministically maps fuzz bytes onto a component
// sequence: two bytes per component select the kind and the
// capture/role/repeat/literal parameters. Repeat counts span 1..128,
// past the 63 the grammar admits, so Validate's bound is exercised;
// literal text comes from fuzzLiterals.
func decodeRegex(data []byte) *Regex {
	var comps []Component
	for i := 0; i+1 < len(data); i += 2 {
		kind := Kind(data[i] % 11)
		p := data[i+1]
		c := Component{Kind: kind}
		if p&1 == 1 {
			c.Capture = true
			c.Role = Role(1 + (p>>1)%5)
		}
		switch kind {
		case KindAlphaFixed:
			// A kind byte of 11 or more adds 64 to the count.
			c.N = 1 + int(p>>2) + 64*int(data[i]/11%2)
		case KindLiteral:
			c.Lit = fuzzLiterals[int(p>>1)%len(fuzzLiterals)]
		}
		comps = append(comps, c)
	}
	return New(geodict.HintIATA, comps...)
}

// FuzzMatch feeds arbitrary hostnames to a fixed regex: no panics, and
// every reported extraction must be a substring of the input.
func FuzzMatch(f *testing.F) {
	re := alterIATA()
	f.Add("0.xe-10-0-0.gw1.sfo16.alter.net")
	f.Add("")
	f.Add(".")
	f.Add("a.b.c.alter.net")
	f.Fuzz(func(t *testing.T, host string) {
		ext, ok := re.Match(host)
		if !ok {
			return
		}
		if len(ext.Hint) != 3 {
			t.Fatalf("IATA extraction %q has wrong width", ext.Hint)
		}
	})
}

// FuzzRexmatchVsStdlib is the differential oracle for the matcher:
// arbitrary bytes decode into a component sequence, and Match and
// ComponentMatches must agree with the stdlib-engine references below
// on the same hostname — the verdict, the decoded Extraction (joined
// split-CLLI halves, state, country), and the span of every component.
// rexmatch implements leftmost-first submatch semantics, so any
// divergence is a bug in the matcher (or in the dialect translation),
// never an acceptable approximation. A regex that passes Validate must
// build a matcher. The checked-in seed corpus pins the two component
// shapes whose parsing PR 3 fixed: multi-character literal captures,
// and a plain literal followed by a captured literal (coalescing
// across the capture boundary).
func FuzzRexmatchVsStdlib(f *testing.F) {
	// {0x00, 0x33}: captured multi-char literal `^(ge)$` (RoleHint).
	f.Add([]byte{0x00, 0x33}, "ge")
	// {0x00, 0x02, 0x00, 0x33}: plain literal then captured literal,
	// `^ge(ge)$` — the coalescing shape.
	f.Add([]byte{0x00, 0x02, 0x00, 0x33}, "gege")
	// Greedy give-back across adjacent repetitions.
	f.Add([]byte{0x03, 0x00, 0x01, 0x00, 0x06, 0x07, 0x08, 0x00}, "xe-1.gw2.sfo12.net")
	f.Add([]byte{0x06, 0x05, 0x02, 0x00, 0x06, 0x07}, "abcd-ef")
	// `^([a-z]+)-([a-z]+)$` as a split-CLLI pair: the halves join.
	f.Add([]byte{0x07, 0x03, 0x02, 0x00, 0x07, 0x05}, "abcd-ef")
	f.Add([]byte{0x00, 0x0a, 0x01, 0x00, 0x00, 0x06}, ".alter.")
	f.Add([]byte{}, "")
	f.Fuzz(func(t *testing.T, data []byte, host string) {
		r := decodeRegex(data)
		if err := r.Validate(); err != nil {
			return
		}
		if err := r.Prepare(); err != nil {
			t.Fatalf("valid regex %q builds no matcher: %v", r.String(), err)
		}
		want, wantOK := stdlibMatch(t, r, host)
		got, gotOK := r.Match(host)
		if gotOK != wantOK || got != want {
			t.Fatalf("Match differs for %q on %q: stdlib=%+v,%v rexmatch=%+v,%v",
				r.String(), host, want, wantOK, got, gotOK)
		}
		wantParts, wantOK := stdlibComponentMatches(t, r, host)
		gotParts, gotOK := r.ComponentMatches(host)
		if gotOK != wantOK || !slices.Equal(gotParts, wantParts) {
			t.Fatalf("ComponentMatches differs for %q on %q: stdlib=%q,%v rexmatch=%q,%v",
				r.String(), host, wantParts, wantOK, gotParts, gotOK)
		}
	})
}

// stdlibCompile compiles a pattern with the stdlib engine, the
// reference the matcher is held to.
func stdlibCompile(t *testing.T, pattern string) *regexp.Regexp {
	t.Helper()
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Fatalf("valid pattern %q does not compile: %v", pattern, err)
	}
	return re
}

// stdlibMatch is the reference for Regex.Match: the stdlib engine runs
// the rendered pattern, and the captures decode by role in component
// order, the split-CLLI halves joined into one hint.
func stdlibMatch(t *testing.T, r *Regex, host string) (Extraction, bool) {
	m := stdlibCompile(t, r.String()).FindStringSubmatch(host)
	if m == nil {
		return Extraction{}, false
	}
	ext := Extraction{Type: r.Hint}
	var clli4, clli2 string
	i := 0
	for _, c := range r.Comps {
		if !c.Capture {
			continue
		}
		i++
		switch c.Role {
		case RoleHint:
			ext.Hint = m[i]
		case RoleCLLI4:
			clli4 = m[i]
		case RoleCLLI2:
			clli2 = m[i]
		case RoleState:
			ext.State = m[i]
		case RoleCountry:
			ext.Country = m[i]
		}
	}
	if clli4 != "" && clli2 != "" {
		ext.Hint = clli4 + clli2
	}
	return ext, true
}

// stdlibComponentMatches is the reference for ComponentMatches: a
// variant of the pattern with every component captured recovers the
// substring each matched.
func stdlibComponentMatches(t *testing.T, r *Regex, host string) ([]string, bool) {
	var b strings.Builder
	b.WriteByte('^')
	for _, c := range r.Comps {
		// render wraps a captured component in one pair of parens, so
		// components that were already captures render identically.
		c.Capture = true
		c.render(&b)
	}
	b.WriteByte('$')
	m := stdlibCompile(t, b.String()).FindStringSubmatch(host)
	if m == nil {
		return nil, false
	}
	return m[1:], true
}
