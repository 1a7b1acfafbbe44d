// Package rex implements the regex-construction engine behind Hoiho's
// geolocation conventions (paper appendix A). Candidate regexes are
// represented as sequences of typed components — literals, punctuation
// separators, punctuation-excluding wildcards, character classes, and
// capture groups annotated with the geographic role of the captured
// string. The representation supports the four construction phases:
// base generation, digit-merge, character-class embedding, and regex-set
// assembly into naming conventions. One table, kinds, defines each
// component kind; rendering, ParsePattern and the specialized matcher
// every regex runs on (rexmatch.go) all read it.
package rex

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hoiho/internal/geodict"
)

// Kind enumerates component types.
type Kind uint8

// Component kinds, mirroring the regex fragments the paper's builder
// emits.
const (
	KindLiteral    Kind = iota // fixed text, escaped on render
	KindDot                    // literal '.'
	KindDash                   // literal '-'
	KindAny                    // .+   (at most one per regex)
	KindNotDot                 // [^\.]+
	KindNotDash                // [^-]+
	KindAlphaFixed             // [a-z]{N}
	KindAlpha                  // [a-z]+
	KindDigits                 // \d+
	KindDigitsOpt              // \d*
	KindAlnum                  // [a-z\d]+
)

// kindSpec is one row of the dialect: what a component kind renders
// as, and what the matcher does with it. A fixed kind matches its text
// exactly (a literal matches its Lit); a class kind matches a greedy
// run of at least min bytes of class cls. KindAlphaFixed's syntax is
// completed by its count and a closing brace, and it matches exactly N
// bytes.
type kindSpec struct {
	syntax string
	fixed  string
	cls    uint8
	min    int32
}

// kinds is the dialect, one row per kind; render, parseOne and compile
// all read it.
var kinds = [...]kindSpec{
	KindLiteral:    {cls: clsLit},
	KindDot:        {syntax: `\.`, fixed: ".", cls: clsLit},
	KindDash:       {syntax: `-`, fixed: "-", cls: clsLit},
	KindAny:        {syntax: `.+`, cls: clsAny, min: 1},
	KindNotDot:     {syntax: `[^\.]+`, cls: clsNotDot, min: 1},
	KindNotDash:    {syntax: `[^-]+`, cls: clsNotDash, min: 1},
	KindAlphaFixed: {syntax: `[a-z]{`, cls: clsAlpha},
	KindAlpha:      {syntax: `[a-z]+`, cls: clsAlpha, min: 1},
	KindDigits:     {syntax: `\d+`, cls: clsDigit, min: 1},
	KindDigitsOpt:  {syntax: `\d*`, cls: clsDigit},
	KindAlnum:      {syntax: `[a-z\d]+`, cls: clsAlnum, min: 1},
}

// maxFixed bounds KindAlphaFixed's repeat count: [a-z] excludes the
// dot, so the run sits inside one DNS label, which holds at most 63
// bytes.
const maxFixed = 63

// Role describes what a capture group extracts.
type Role uint8

// Capture roles. RoleHint captures the geohint string interpreted by the
// regex's hint type; RoleCLLI4 and RoleCLLI2 capture the split halves of
// a CLLI prefix (paper fig. 6e); RoleState and RoleCountry capture
// annotation codes that accompany the geohint.
const (
	RoleNone Role = iota
	RoleHint
	RoleCLLI4
	RoleCLLI2
	RoleState
	RoleCountry
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RoleHint:
		return "hint"
	case RoleCLLI4:
		return "clli4"
	case RoleCLLI2:
		return "clli2"
	case RoleState:
		return "state"
	case RoleCountry:
		return "country"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// Component is one element of a regex.
type Component struct {
	Kind    Kind
	N       int    // repeat count for KindAlphaFixed
	Capture bool   // whether the component is a capture group
	Role    Role   // meaning of the capture (RoleNone if not captured)
	Lit     string // text for KindLiteral
}

// render writes the component's regex fragment.
func (c Component) render(b *strings.Builder) {
	if c.Capture {
		b.WriteByte('(')
	}
	switch {
	case c.Kind == KindLiteral:
		b.WriteString(regexp.QuoteMeta(c.Lit))
	case c.Kind == KindAlphaFixed:
		b.WriteString(kinds[c.Kind].syntax + strconv.Itoa(c.N) + "}")
	case int(c.Kind) < len(kinds):
		b.WriteString(kinds[c.Kind].syntax)
	}
	if c.Capture {
		b.WriteByte(')')
	}
}

// check reports a component outside the dialect: an unknown kind, or a
// fixed repeat outside 1-maxFixed.
func (c Component) check() error {
	if int(c.Kind) >= len(kinds) {
		return fmt.Errorf("rex: unknown component kind %d", c.Kind)
	}
	if c.Kind == KindAlphaFixed && (c.N < 1 || c.N > maxFixed) {
		return fmt.Errorf("rex: repeat count %d outside 1-%d", c.N, maxFixed)
	}
	return nil
}

// equal reports whether two components are identical.
func (c Component) equal(o Component) bool { return c == o }

// Regex is a candidate geohint-extraction regex: an anchored sequence of
// components ending in the suffix literal, plus the plan for decoding
// the captures.
//
// The rendering and the matcher are built on first use under
// sync.Once, so a shared *Regex — e.g. one inside a published
// NamingConvention applied by concurrent lookups, or candidates
// evaluated by the parallel pipeline — is safe for concurrent use.
// Comps must not be mutated after the first String, Prepare, Match, or
// ComponentMatches call; Clone returns a mutable copy with cold caches.
type Regex struct {
	Comps []Component
	Hint  geodict.HintType // dictionary that interprets the RoleHint capture

	renderOnce  sync.Once
	rendering   string
	matcherOnce sync.Once
	matcher     *prog // nil when the build failed
	matcherErr  error
}

// New assembles a regex from components. The component list should
// cover the entire hostname (the caller appends the suffix literal).
func New(hint geodict.HintType, comps ...Component) *Regex {
	return &Regex{Comps: comps, Hint: hint}
}

// Clone returns a deep copy with cleared caches.
func (r *Regex) Clone() *Regex {
	c := &Regex{Hint: r.Hint}
	c.Comps = append([]Component(nil), r.Comps...)
	return c
}

// Validate checks structural invariants: known component kinds, fixed
// repeat counts of 1-63, at most one KindAny component, at most one
// RoleHint capture, captures only on capturable kinds, and a decodable
// capture plan. Every regex that passes builds a matcher (Prepare).
func (r *Regex) Validate() error {
	anies, hints := 0, 0
	for _, c := range r.Comps {
		if err := c.check(); err != nil {
			return err
		}
		if c.Kind == KindAny {
			anies++
			if c.Capture {
				return fmt.Errorf("rex: .+ cannot be captured")
			}
		}
		if c.Capture {
			if c.Role == RoleNone {
				return fmt.Errorf("rex: capture without role")
			}
			if c.Role == RoleHint {
				hints++
			}
		} else if c.Role != RoleNone {
			return fmt.Errorf("rex: role %v on non-capture component", c.Role)
		}
	}
	if anies > 1 {
		return fmt.Errorf("rex: more than one .+ component")
	}
	roles := r.Roles()
	hasCLLIPair := containsRole(roles, RoleCLLI4) && containsRole(roles, RoleCLLI2)
	if hints == 0 && !hasCLLIPair {
		return fmt.Errorf("rex: no geohint capture")
	}
	if hints > 1 {
		return fmt.Errorf("rex: multiple geohint captures")
	}
	if hints == 1 && (containsRole(roles, RoleCLLI4) || containsRole(roles, RoleCLLI2)) {
		return fmt.Errorf("rex: mixed hint and split-CLLI captures")
	}
	return nil
}

// Roles returns the roles of the capture groups, in order.
func (r *Regex) Roles() []Role {
	var out []Role
	for _, c := range r.Comps {
		if c.Capture {
			out = append(out, c.Role)
		}
	}
	return out
}

func containsRole(roles []Role, want Role) bool {
	for _, r := range roles {
		if r == want {
			return true
		}
	}
	return false
}

// String renders the full anchored regex (paper notation, e.g.
// `^.+\.([a-z]{3})\d+\.alter\.net$`).
func (r *Regex) String() string {
	r.renderOnce.Do(func() {
		var b strings.Builder
		b.WriteByte('^')
		for _, c := range r.Comps {
			c.render(&b)
		}
		b.WriteByte('$')
		r.rendering = b.String()
	})
	return r.rendering
}

// matchersCompiled counts matcher builds process-wide.
var matchersCompiled atomic.Int64

// MatchersCompiled returns how many matchers have been built
// process-wide. Each Regex value builds at most once, so the count
// measures distinct regexes prepared, not Match calls. The pipeline
// and index builds report it as deltas around their work; being
// process-global, the deltas overlap when builds run concurrently.
func MatchersCompiled() int64 { return matchersCompiled.Load() }

// matcherProg returns the one-pass matcher for the component sequence,
// built on first use, or nil when the sequence is outside the dialect.
// One program serves both Match and ComponentMatches — it records the
// span of every component, captured or not.
func (r *Regex) matcherProg() *prog {
	r.matcherOnce.Do(func() {
		p, err := compile(r.Comps)
		if err != nil {
			r.matcherErr = fmt.Errorf("rex: build matcher for %q: %w", r.String(), err)
			return
		}
		matchersCompiled.Add(1)
		r.matcher = p
	})
	return r.matcher
}

// resultPool recycles matcher scratch state across Match and
// ComponentMatches calls; a steady-state candidate probe allocates
// nothing.
var resultPool = sync.Pool{New: func() any { return new(result) }}

// Prepare builds the regex's matcher without running it, so no later
// Match pays the build, and returns the error of a component sequence
// the matcher cannot express — the check index builds rely on. Every
// regex that passes Validate builds.
func (r *Regex) Prepare() error {
	r.matcherProg()
	return r.matcherErr
}

// Extraction is the decoded result of matching a hostname.
type Extraction struct {
	Hint    string           // the geohint string ("lhr", or joined CLLI halves)
	Type    geodict.HintType // dictionary to interpret Hint
	State   string           // captured state code, if any
	Country string           // captured country code, if any
}

// Match applies the regex to a full hostname and decodes the captures
// into an Extraction. ok is false when the hostname does not match or
// the regex builds no matcher (see Prepare). The match itself
// allocates nothing.
func (r *Regex) Match(hostname string) (Extraction, bool) {
	p := r.matcherProg()
	if p == nil {
		return Extraction{}, false
	}
	res := resultPool.Get().(*result)
	ok := p.run(hostname, res)
	var ext Extraction
	if ok {
		ext = r.decodeParts(res)
	}
	resultPool.Put(res)
	return ext, ok
}

// decodeParts maps a successful run onto an Extraction; part indices
// align 1:1 with components.
func (r *Regex) decodeParts(res *result) Extraction {
	ext := Extraction{Type: r.Hint}
	var clli4, clli2 string
	for i := range r.Comps {
		c := &r.Comps[i]
		if !c.Capture {
			continue
		}
		switch c.Role {
		case RoleHint:
			ext.Hint = res.part(i)
		case RoleCLLI4:
			clli4 = res.part(i)
		case RoleCLLI2:
			clli2 = res.part(i)
		case RoleState:
			ext.State = res.part(i)
		case RoleCountry:
			ext.Country = res.part(i)
		}
	}
	if clli4 != "" && clli2 != "" {
		ext.Hint = clli4 + clli2
	}
	return ext
}

// ComponentMatches returns the substring each component matched against
// the hostname (phase 3's evidence), or ok=false if the hostname does
// not match. The matcher tracks every component's span, so this shares
// Match's program.
func (r *Regex) ComponentMatches(hostname string) ([]string, bool) {
	p := r.matcherProg()
	if p == nil {
		return nil, false
	}
	res := resultPool.Get().(*result)
	var parts []string
	ok := p.run(hostname, res)
	if ok {
		parts = res.parts(make([]string, 0, len(r.Comps)))
	}
	resultPool.Put(res)
	return parts, ok
}

// Equal reports whether two regexes render identically and share a hint
// type.
func (r *Regex) Equal(o *Regex) bool {
	return r.Hint == o.Hint && r.String() == o.String()
}

// Key returns a dedup key combining hint type and rendering.
func (r *Regex) Key() string {
	return fmt.Sprintf("%d|%s", r.Hint, r.String())
}
