package rex

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"hoiho/internal/geodict"
)

// ParsePattern parses a regex in the closed grammar this package emits
// (the published-regex format) back into a component AST, attaching the
// given roles to the capture groups in order. It round-trips exactly
// with String(): ParsePattern(h, r.String(), roles(r)) reconstructs r.
//
// Grammar: '^' body '$', where body is a sequence of
//
//	\.          literal dot          -           literal dash
//	.+          any                  [^\.]+      not-dot
//	[^-]+       not-dash             [a-z]{n}    fixed alpha
//	[a-z]+      alpha                [a-z\d]+    alnum
//	\d+         digits               \d*         optional digits
//	(X)         capture of X         other text  literal (possibly \-escaped)
func ParsePattern(hint geodict.HintType, pattern string, roles []Role) (*Regex, error) {
	if !strings.HasPrefix(pattern, "^") || !strings.HasSuffix(pattern, "$") {
		return nil, fmt.Errorf("rex: pattern %q must be anchored with ^...$", pattern)
	}
	body := pattern[1 : len(pattern)-1]
	r := &Regex{Hint: hint}
	ri := 0
	i := 0
	for i < len(body) {
		var c Component
		var n int
		var err error
		if body[i] == '(' {
			end := strings.IndexByte(body[i:], ')')
			if end < 0 {
				return nil, fmt.Errorf("rex: unterminated capture in %q", pattern)
			}
			inner := body[i+1 : i+end]
			c, err = parseCapture(inner)
			if err != nil {
				return nil, err
			}
			if ri >= len(roles) {
				return nil, fmt.Errorf("rex: pattern %q has more captures than roles", pattern)
			}
			c.Capture = true
			c.Role = roles[ri]
			ri++
			i += end + 1
		} else {
			c, n, err = parseOne(body[i:])
			if err != nil {
				return nil, err
			}
			i += n
		}
		// Coalesce adjacent plain literals (never into or out of a
		// capture: `a(a)` is a literal followed by a captured literal).
		if c.Kind == KindLiteral && !c.Capture && len(r.Comps) > 0 {
			last := &r.Comps[len(r.Comps)-1]
			if last.Kind == KindLiteral && !last.Capture {
				last.Lit += c.Lit
				continue
			}
		}
		r.Comps = append(r.Comps, c)
	}
	if ri != len(roles) {
		return nil, fmt.Errorf("rex: pattern %q has %d captures, %d roles given", pattern, ri, len(roles))
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// parseCapture parses the inside of a capture group, which must be a
// single component. Literal text spanning several parseOne tokens
// ("xe0", "\+x") coalesces into one literal component, mirroring the
// renderer, so captured literals of any length round-trip.
func parseCapture(inner string) (Component, error) {
	var out Component
	parsed := false
	i := 0
	for i < len(inner) {
		c, n, err := parseOne(inner[i:])
		if err != nil {
			return Component{}, err
		}
		i += n
		if parsed && out.Kind == KindLiteral && c.Kind == KindLiteral {
			out.Lit += c.Lit
			continue
		}
		if parsed {
			return Component{}, fmt.Errorf("rex: capture %q is not a single component", inner)
		}
		out = c
		parsed = true
	}
	if !parsed {
		return Component{}, fmt.Errorf("rex: empty capture")
	}
	return out, nil
}

// parseOne parses a single component at the head of s, returning it and
// the number of bytes consumed. Kinds are recognized by their syntax in
// the kinds table, none of which is a prefix of another; a repeat count
// must be written as String writes it, and Validate bounds it.
func parseOne(s string) (Component, int, error) {
	for k := KindDot; int(k) < len(kinds); k++ {
		syntax := kinds[k].syntax
		if !strings.HasPrefix(s, syntax) {
			continue
		}
		if k != KindAlphaFixed {
			return Component{Kind: k}, len(syntax), nil
		}
		end := strings.IndexByte(s, '}')
		if end < 0 {
			return Component{}, 0, fmt.Errorf("rex: unterminated repeat in %q", s)
		}
		n, err := strconv.Atoi(s[len(syntax):end])
		if err != nil || strconv.Itoa(n) != s[len(syntax):end] {
			return Component{}, 0, fmt.Errorf("rex: bad repeat count in %q", s)
		}
		return Component{Kind: k, N: n}, end + 1, nil
	}
	switch {
	case s == "":
		return Component{}, 0, fmt.Errorf("rex: empty component")
	case s[0] == '\\' && len(s) >= 2 &&
		regexp.QuoteMeta(string(s[1])) == s[:2]:
		// Escaped literal character, exactly as QuoteMeta would emit it
		// (anything else would not round-trip through String()).
		return Component{Kind: KindLiteral, Lit: string(s[1])}, 2, nil
	case isPlainLiteral(s[0]):
		return Component{Kind: KindLiteral, Lit: string(s[0])}, 1, nil
	default:
		return Component{}, 0, fmt.Errorf("rex: cannot parse component at %q", s)
	}
}

// isPlainLiteral reports whether b can appear unescaped as literal text
// in the emitted grammar.
func isPlainLiteral(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= '0' && b <= '9':
		return true
	case b == '_':
		return true
	default:
		return false
	}
}

// RoleNames maps role names to values for the published format.
var roleNames = map[string]Role{
	"hint": RoleHint, "clli4": RoleCLLI4, "clli2": RoleCLLI2,
	"state": RoleState, "country": RoleCountry,
}

// ParseRole resolves a role name from the published format.
func ParseRole(name string) (Role, error) {
	if r, ok := roleNames[name]; ok {
		return r, nil
	}
	return RoleNone, fmt.Errorf("rex: unknown role %q", name)
}

// ParseHintType resolves a hint-type name from the published format.
func ParseHintType(name string) (geodict.HintType, error) {
	for _, t := range []geodict.HintType{
		geodict.HintIATA, geodict.HintICAO, geodict.HintLocode,
		geodict.HintCLLI, geodict.HintPlace, geodict.HintFacility,
	} {
		if t.String() == name {
			return t, nil
		}
	}
	return geodict.HintNone, fmt.Errorf("rex: unknown hint type %q", name)
}
