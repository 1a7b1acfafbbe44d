// Package rex implements the regex-construction engine behind Hoiho's
// geolocation conventions (paper appendix A). Candidate regexes are
// represented as sequences of typed components — literals, punctuation
// separators, punctuation-excluding wildcards, character classes, and
// capture groups annotated with the geographic role of the captured
// string. The representation supports the four construction phases:
// base generation, digit-merge, character-class embedding, and regex-set
// assembly into naming conventions.
package rex

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"

	"hoiho/internal/geodict"
	"hoiho/internal/rexmatch"
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
	switch c.Kind {
	case KindLiteral:
		b.WriteString(regexp.QuoteMeta(c.Lit))
	case KindDot:
		b.WriteString(`\.`)
	case KindDash:
		b.WriteString(`-`)
	case KindAny:
		b.WriteString(`.+`)
	case KindNotDot:
		b.WriteString(`[^\.]+`)
	case KindNotDash:
		b.WriteString(`[^-]+`)
	case KindAlphaFixed:
		fmt.Fprintf(b, `[a-z]{%d}`, c.N)
	case KindAlpha:
		b.WriteString(`[a-z]+`)
	case KindDigits:
		b.WriteString(`\d+`)
	case KindDigitsOpt:
		b.WriteString(`\d*`)
	case KindAlnum:
		b.WriteString(`[a-z\d]+`)
	}
	if c.Capture {
		b.WriteByte(')')
	}
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
	matcher     *rexmatch.Prog // nil when the build failed
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
		if c.Kind > KindAlnum {
			return fmt.Errorf("rex: unknown component kind %d", c.Kind)
		}
		if c.Kind == KindAlphaFixed && (c.N < 1 || c.N > maxFixed) {
			return fmt.Errorf("rex: repeat count %d outside 1-%d", c.N, maxFixed)
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

// matcherSpecs translates the component AST into the rexmatch dialect.
// Every component kind has a direct translation; an unknown kind maps
// to an op rexmatch.Compile rejects, which Prepare reports.
func matcherSpecs(comps []Component) []rexmatch.Spec {
	specs := make([]rexmatch.Spec, len(comps))
	for i, c := range comps {
		s := rexmatch.Spec{Capture: c.Capture}
		switch c.Kind {
		case KindLiteral:
			s.Op, s.Lit = rexmatch.OpLit, c.Lit
		case KindDot:
			s.Op, s.Lit = rexmatch.OpLit, "."
		case KindDash:
			s.Op, s.Lit = rexmatch.OpLit, "-"
		case KindAny:
			s.Op = rexmatch.OpAny
		case KindNotDot:
			s.Op = rexmatch.OpNotDot
		case KindNotDash:
			s.Op = rexmatch.OpNotDash
		case KindAlphaFixed:
			s.Op, s.N = rexmatch.OpAlphaFixed, c.N
		case KindAlpha:
			s.Op = rexmatch.OpAlpha
		case KindDigits:
			s.Op = rexmatch.OpDigits
		case KindDigitsOpt:
			s.Op = rexmatch.OpDigitsOpt
		case KindAlnum:
			s.Op = rexmatch.OpAlnum
		default:
			s.Op = rexmatch.Op(255)
		}
		specs[i] = s
	}
	return specs
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
// built on first use, or nil when the sequence is outside the rexmatch
// dialect. One program serves both Match and ComponentMatches — it
// records the span of every component, captured or not.
func (r *Regex) matcherProg() *rexmatch.Prog {
	r.matcherOnce.Do(func() {
		p, err := rexmatch.Compile(matcherSpecs(r.Comps))
		if err != nil {
			r.matcherErr = fmt.Errorf("rex: build matcher for %q: %w", r.String(), err)
			return
		}
		matchersCompiled.Add(1)
		r.matcher = p
	})
	return r.matcher
}

// resultPool recycles rexmatch scratch state across Match and
// ComponentMatches calls; a steady-state candidate probe allocates
// nothing.
var resultPool = sync.Pool{New: func() any { return new(rexmatch.Result) }}

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
	res := resultPool.Get().(*rexmatch.Result)
	ok := p.Run(hostname, res)
	var ext Extraction
	if ok {
		ext = r.decodeParts(res)
	}
	resultPool.Put(res)
	return ext, ok
}

// decodeParts maps a successful rexmatch run onto an Extraction; part
// indices align 1:1 with components.
func (r *Regex) decodeParts(res *rexmatch.Result) Extraction {
	ext := Extraction{Type: r.Hint}
	var clli4, clli2 string
	for i := range r.Comps {
		c := &r.Comps[i]
		if !c.Capture {
			continue
		}
		switch c.Role {
		case RoleHint:
			ext.Hint = res.Part(i)
		case RoleCLLI4:
			clli4 = res.Part(i)
		case RoleCLLI2:
			clli2 = res.Part(i)
		case RoleState:
			ext.State = res.Part(i)
		case RoleCountry:
			ext.Country = res.Part(i)
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
	res := resultPool.Get().(*rexmatch.Result)
	var parts []string
	ok := p.Run(hostname, res)
	if ok {
		parts = res.Parts(make([]string, 0, len(r.Comps)))
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
