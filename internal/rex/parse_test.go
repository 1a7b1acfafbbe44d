package rex

import (
	"strings"
	"testing"

	"hoiho/internal/geodict"
)

func TestParsePatternRoundTrip(t *testing.T) {
	regexes := []*Regex{
		alterIATA(),
		alterCity(),
		New(geodict.HintCLLI,
			Component{Kind: KindAny},
			Component{Kind: KindDot},
			Component{Kind: KindAlphaFixed, N: 6, Capture: true, Role: RoleHint},
			Component{Kind: KindDigits},
			Component{Kind: KindDot},
			Component{Kind: KindAlphaFixed, N: 2, Capture: true, Role: RoleCountry},
			Component{Kind: KindDot},
			Component{Kind: KindAlphaFixed, N: 2},
			Component{Kind: KindLiteral, Lit: ".gin.ntt.net"},
		),
		New(geodict.HintCLLI,
			Component{Kind: KindNotDot},
			Component{Kind: KindDot},
			Component{Kind: KindAlphaFixed, N: 4, Capture: true, Role: RoleCLLI4},
			Component{Kind: KindDash},
			Component{Kind: KindAlphaFixed, N: 2, Capture: true, Role: RoleCLLI2},
			Component{Kind: KindLiteral, Lit: ".windstream.net"},
		),
		New(geodict.HintFacility,
			Component{Kind: KindNotDash},
			Component{Kind: KindDot},
			Component{Kind: KindAlnum, Capture: true, Role: RoleHint},
			Component{Kind: KindDigitsOpt},
			Component{Kind: KindLiteral, Lit: ".comcast.net"},
		),
	}
	for _, want := range regexes {
		got, err := ParsePattern(want.Hint, want.String(), want.Roles())
		if err != nil {
			t.Fatalf("ParsePattern(%s): %v", want.String(), err)
		}
		if !got.Equal(want) {
			t.Errorf("round trip:\n got %s\nwant %s", got.String(), want.String())
		}
		// Matching behaviour also round-trips.
		if want.Hint == geodict.HintIATA {
			e1, ok1 := want.Match("0.xe-1.gw1.sfo16.alter.net")
			e2, ok2 := got.Match("0.xe-1.gw1.sfo16.alter.net")
			if ok1 != ok2 || e1 != e2 {
				t.Errorf("match mismatch after round trip")
			}
		}
	}
}

func TestParsePatternErrors(t *testing.T) {
	cases := []struct {
		pattern string
		roles   []Role
	}{
		{`no-anchors`, nil},
		{`^([a-z]{3})$`, nil},                   // more captures than roles
		{`^[a-z]{3}$`, []Role{RoleHint}},        // fewer captures than roles
		{`^([a-z]{3)$`, []Role{RoleHint}},       // unterminated repeat
		{`^([a-z]{x})$`, []Role{RoleHint}},      // bad repeat count
		{`^([a-z]{+5})$`, []Role{RoleHint}},     // count String never writes
		{`^([a-z]{05})$`, []Role{RoleHint}},     // count String never writes
		{`^([a-z]{64})$`, []Role{RoleHint}},     // count past a DNS label
		{`^(([a-z]{3}))$`, []Role{RoleHint}},    // nested capture
		{`^([a-z]{3})[A-Z]$`, []Role{RoleHint}}, // unknown construct
		{`^([a-z]{3}\d+)$`, []Role{RoleHint}},   // multi-component capture
		{`^(\d+$`, []Role{RoleHint}},            // unterminated capture
	}
	for _, c := range cases {
		if _, err := ParsePattern(geodict.HintIATA, c.pattern, c.roles); err == nil {
			t.Errorf("pattern %q should fail", c.pattern)
		}
	}
}

func TestParsePatternLiteralCoalescing(t *testing.T) {
	r, err := ParsePattern(geodict.HintIATA, `^([a-z]{3})\.alter\.net$`, []Role{RoleHint})
	if err != nil {
		t.Fatal(err)
	}
	// "\.alter\.net" parses into dot + literals; rendering matches.
	if got := r.String(); got != `^([a-z]{3})\.alter\.net$` {
		t.Errorf("render = %s", got)
	}
	ext, ok := r.Match("sfo.alter.net")
	if !ok || ext.Hint != "sfo" {
		t.Errorf("match = %+v %v", ext, ok)
	}
}

func TestParseRoleAndHintType(t *testing.T) {
	for _, name := range []string{"hint", "clli4", "clli2", "state", "country"} {
		if _, err := ParseRole(name); err != nil {
			t.Errorf("ParseRole(%s): %v", name, err)
		}
	}
	if _, err := ParseRole("bogus"); err == nil {
		t.Error("unknown role should fail")
	}
	for _, name := range []string{"iata", "icao", "locode", "clli", "place", "facility"} {
		ht, err := ParseHintType(name)
		if err != nil || ht.String() != name {
			t.Errorf("ParseHintType(%s) = %v, %v", name, ht, err)
		}
	}
	if _, err := ParseHintType("bogus"); err == nil {
		t.Error("unknown hint type should fail")
	}
}

func TestParsePatternAllGeneratedForms(t *testing.T) {
	// Every grammar production must round-trip.
	patterns := []struct {
		pattern string
		roles   []Role
	}{
		{`^.+\.([a-z]{3})\d+\.x\.net$`, []Role{RoleHint}},
		{`^[^\.]+\.([a-z]+)\d*\.([a-z]{2})\.x\.net$`, []Role{RoleHint, RoleCountry}},
		{`^[^-]+-([a-z]{5})\.x\.net$`, []Role{RoleHint}},
		{`^\d+\.[a-z]+\d+\.([a-z]{6})[a-z\d]+\.x\.net$`, []Role{RoleHint}},
		{`^([a-z\d]+)\.([a-z]{2})\.x\.net$`, []Role{RoleHint, RoleState}},
	}
	for _, p := range patterns {
		r, err := ParsePattern(geodict.HintIATA, p.pattern, p.roles)
		if err != nil {
			t.Errorf("ParsePattern(%s): %v", p.pattern, err)
			continue
		}
		if r.String() != p.pattern {
			t.Errorf("round trip: got %s want %s", r.String(), p.pattern)
		}
	}
}

func TestParsePatternRejectsForeignRegex(t *testing.T) {
	// Arbitrary regexes outside the emitted grammar are rejected rather
	// than mis-parsed.
	for _, p := range []string{
		`^(?:abc)$`, `^[abc]+$`, `^a{2,3}$`, `^a|b$`,
	} {
		if _, err := ParsePattern(geodict.HintIATA, p, nil); err == nil {
			t.Errorf("foreign pattern %q should be rejected", p)
		}
	}
	_ = strings.TrimSpace("")
}
