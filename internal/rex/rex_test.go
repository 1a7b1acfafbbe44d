package rex

import (
	"reflect"
	"strings"
	"testing"

	"hoiho/internal/geodict"
)

// alterIATA builds the paper's regex #1 for alter.net:
// ^.+\.([a-z]{3})\d+\.alter\.net$
func alterIATA() *Regex {
	return New(geodict.HintIATA,
		Component{Kind: KindAny},
		Component{Kind: KindDot},
		Component{Kind: KindAlphaFixed, N: 3, Capture: true, Role: RoleHint},
		Component{Kind: KindDigits},
		Component{Kind: KindLiteral, Lit: ".alter.net"},
	)
}

// alterCity builds the paper's regex #5 for alter.net:
// ^[^\.]+\.([a-z]+)\d*\.([a-z]{2})\.alter\.net$
func alterCity() *Regex {
	return New(geodict.HintPlace,
		Component{Kind: KindNotDot},
		Component{Kind: KindDot},
		Component{Kind: KindAlpha, Capture: true, Role: RoleHint},
		Component{Kind: KindDigitsOpt},
		Component{Kind: KindDot},
		Component{Kind: KindAlphaFixed, N: 2, Capture: true, Role: RoleCountry},
		Component{Kind: KindLiteral, Lit: ".alter.net"},
	)
}

func TestRenderPaperRegexes(t *testing.T) {
	if got := alterIATA().String(); got != `^.+\.([a-z]{3})\d+\.alter\.net$` {
		t.Errorf("render = %s", got)
	}
	if got := alterCity().String(); got != `^[^\.]+\.([a-z]+)\d*\.([a-z]{2})\.alter\.net$` {
		t.Errorf("render = %s", got)
	}
}

func TestMatchIATA(t *testing.T) {
	r := alterIATA()
	ext, ok := r.Match("0.xe-10-0-0.gw1.sfo16.alter.net")
	if !ok {
		t.Fatal("should match paper hostname (a)")
	}
	if ext.Hint != "sfo" || ext.Type != geodict.HintIATA {
		t.Errorf("ext = %+v", ext)
	}
	// Hostname (g) has a 6-letter CLLI label; [a-z]{3}\d+ cannot match.
	if _, ok := r.Match("0.af0.rcmdva83-mse01-a-ie1.alter.net"); ok {
		t.Error("IATA regex should not match CLLI-form hostname")
	}
}

func TestMatchCityWithCountry(t *testing.T) {
	r := alterCity()
	ext, ok := r.Match("gi0-0-0.munich.de.alter.net")
	if !ok {
		t.Fatal("should match city-form hostname")
	}
	if ext.Hint != "munich" || ext.Country != "de" || ext.Type != geodict.HintPlace {
		t.Errorf("ext = %+v", ext)
	}
	// Digit-optional: matches both with and without trailing digits.
	ext, ok = r.Match("pos1.stuttgart2.de.alter.net")
	if !ok || ext.Hint != "stuttgart" {
		t.Errorf("digit-optional match failed: %+v %v", ext, ok)
	}
}

func TestSplitCLLIMatch(t *testing.T) {
	// Windstream-style: ^.+\.([a-z]{4})\d*-([a-z]{2})\.windstream\.net$
	r := New(geodict.HintCLLI,
		Component{Kind: KindAny},
		Component{Kind: KindDot},
		Component{Kind: KindAlphaFixed, N: 4, Capture: true, Role: RoleCLLI4},
		Component{Kind: KindDigitsOpt},
		Component{Kind: KindDash},
		Component{Kind: KindAlphaFixed, N: 2, Capture: true, Role: RoleCLLI2},
		Component{Kind: KindLiteral, Lit: ".windstream.net"},
	)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	ext, ok := r.Match("ae2-0.agr2.mtgm-al.windstream.net")
	if !ok {
		t.Fatal("split CLLI should match")
	}
	if ext.Hint != "mtgmal" {
		t.Errorf("joined CLLI = %q, want mtgmal", ext.Hint)
	}
}

func TestValidate(t *testing.T) {
	// Two .+ components: invalid.
	bad := New(geodict.HintIATA,
		Component{Kind: KindAny},
		Component{Kind: KindAny},
		Component{Kind: KindAlphaFixed, N: 3, Capture: true, Role: RoleHint},
	)
	if err := bad.Validate(); err == nil {
		t.Error("two .+ should be invalid")
	}
	// No geohint capture: invalid.
	bad2 := New(geodict.HintIATA,
		Component{Kind: KindAlphaFixed, N: 2, Capture: true, Role: RoleCountry},
	)
	if err := bad2.Validate(); err == nil {
		t.Error("regex without hint capture should be invalid")
	}
	// Capture without role: invalid.
	bad3 := New(geodict.HintIATA,
		Component{Kind: KindAlphaFixed, N: 3, Capture: true},
	)
	if err := bad3.Validate(); err == nil {
		t.Error("capture without role should be invalid")
	}
	// Role on non-capture: invalid.
	bad4 := New(geodict.HintIATA,
		Component{Kind: KindAlphaFixed, N: 3, Role: RoleHint},
	)
	if err := bad4.Validate(); err == nil {
		t.Error("role without capture should be invalid")
	}
	// Two hints: invalid.
	bad5 := New(geodict.HintIATA,
		Component{Kind: KindAlphaFixed, N: 3, Capture: true, Role: RoleHint},
		Component{Kind: KindAlphaFixed, N: 3, Capture: true, Role: RoleHint},
	)
	if err := bad5.Validate(); err == nil {
		t.Error("two hint captures should be invalid")
	}
	// Hint + split CLLI: invalid.
	bad6 := New(geodict.HintCLLI,
		Component{Kind: KindAlphaFixed, N: 6, Capture: true, Role: RoleHint},
		Component{Kind: KindAlphaFixed, N: 4, Capture: true, Role: RoleCLLI4},
		Component{Kind: KindAlphaFixed, N: 2, Capture: true, Role: RoleCLLI2},
	)
	if err := bad6.Validate(); err == nil {
		t.Error("mixed hint and split CLLI should be invalid")
	}
	// Fixed repeats outside a DNS label's 1-63 bytes: invalid.
	for _, n := range []int{0, 64} {
		r := New(geodict.HintIATA, Component{Kind: KindAlphaFixed, N: n, Capture: true, Role: RoleHint})
		if err := r.Validate(); err == nil {
			t.Errorf("[a-z]{%d} should be invalid", n)
		}
	}
	// Unknown component kind: invalid.
	bad7 := New(geodict.HintIATA,
		Component{Kind: KindAlnum + 1},
		Component{Kind: KindAlphaFixed, N: 3, Capture: true, Role: RoleHint},
	)
	if err := bad7.Validate(); err == nil {
		t.Error("unknown kind should be invalid")
	}
	// Valid one passes.
	if err := alterCity().Validate(); err != nil {
		t.Errorf("valid regex rejected: %v", err)
	}
}

func TestMergeDigitsSameLength(t *testing.T) {
	// Regexes #3 and #4 of fig. 13 differ by \d+ vs nothing; model the
	// same-length variant with \d+ vs \d*.
	a := alterCity()
	b := alterCity()
	b.Comps[3] = Component{Kind: KindDigits}
	m, ok := MergeDigits(a, b)
	if !ok {
		t.Fatal("should merge \\d* with \\d+")
	}
	if m.Comps[3].Kind != KindDigitsOpt {
		t.Errorf("merged component = %+v", m.Comps[3])
	}
}

func TestMergeDigitsInsertion(t *testing.T) {
	// Fig. 13 phase 2: #3 has \d+ where #4 has nothing; merge to \d*.
	withDigits := New(geodict.HintPlace,
		Component{Kind: KindNotDot},
		Component{Kind: KindDot},
		Component{Kind: KindAlpha, Capture: true, Role: RoleHint},
		Component{Kind: KindDigits},
		Component{Kind: KindDot},
		Component{Kind: KindAlphaFixed, N: 2, Capture: true, Role: RoleCountry},
		Component{Kind: KindLiteral, Lit: ".alter.net"},
	)
	without := New(geodict.HintPlace,
		Component{Kind: KindNotDot},
		Component{Kind: KindDot},
		Component{Kind: KindAlpha, Capture: true, Role: RoleHint},
		Component{Kind: KindDot},
		Component{Kind: KindAlphaFixed, N: 2, Capture: true, Role: RoleCountry},
		Component{Kind: KindLiteral, Lit: ".alter.net"},
	)
	m, ok := MergeDigits(withDigits, without)
	if !ok {
		t.Fatal("insertion merge should succeed")
	}
	want := `^[^\.]+\.([a-z]+)\d*\.([a-z]{2})\.alter\.net$`
	if m.String() != want {
		t.Errorf("merged = %s, want %s", m.String(), want)
	}
	// Merged regex matches hostnames i, j (digits) and k, l (no digits).
	for _, hn := range []string{
		"pos-00008.munich1.de.alter.net",
		"ckh.dresden.de.alter.net",
	} {
		if _, ok := m.Match(hn); !ok {
			t.Errorf("merged regex should match %s", hn)
		}
	}
	// Order-independence.
	m2, ok := MergeDigits(without, withDigits)
	if !ok || m2.String() != want {
		t.Errorf("reverse merge = %v %v", m2, ok)
	}
}

func TestMergeDigitsRejects(t *testing.T) {
	a := alterIATA()
	b := alterCity()
	if _, ok := MergeDigits(a, b); ok {
		t.Error("different hints should not merge")
	}
	// Identical regexes: nothing to merge.
	if _, ok := MergeDigits(alterIATA(), alterIATA()); ok {
		t.Error("identical regexes should not merge")
	}
	// Two differing positions: reject.
	c := alterCity()
	c.Comps[0] = Component{Kind: KindAny}
	c.Comps[3] = Component{Kind: KindDigits}
	if _, ok := MergeDigits(alterCity(), c); ok {
		t.Error("two differences should not merge")
	}
	// Length difference of 2: reject.
	d := alterCity()
	d.Comps = append(d.Comps[:3:3], append([]Component{{Kind: KindDigits}, {Kind: KindDigits}}, d.Comps[3:]...)...)
	if _, ok := MergeDigits(alterCity(), d); ok {
		t.Error("length difference of 2 should not merge")
	}
}

func TestSpecialize(t *testing.T) {
	// ^[^\.]+\.[^\.]+\.([a-z]{6})[^-]+\.alter\.net$ (fig. 13 regex #2);
	// the first [^\.]+ matches digits, the second matches alpha+digits.
	r := New(geodict.HintCLLI,
		Component{Kind: KindNotDot},
		Component{Kind: KindDot},
		Component{Kind: KindNotDot},
		Component{Kind: KindDot},
		Component{Kind: KindAlphaFixed, N: 6, Capture: true, Role: RoleHint},
		Component{Kind: KindNotDash},
		Component{Kind: KindLiteral, Lit: "-mse01-a-ie1.alter.net"},
	)
	hosts := []string{
		"0.af0.rcmdva83-mse01-a-ie1.alter.net",
		"0.csi1.nwrknj12-mse01-a-ie1.alter.net",
	}
	s := Specialize(r, hosts)
	// First [^\.]+ matched "0" twice -> \d+; second matched "af0","csi1"
	// -> [a-z]+\d+ (non-capturing); [^-]+ matched "83","12" -> \d+.
	if got := s.String(); got != `^\d+\.[a-z]+\d+\.([a-z]{6})\d+-mse01-a-ie1\.alter\.net$` {
		t.Errorf("specialized = %s", got)
	}
	// Specialized regex still matches the hostnames.
	for _, hn := range hosts {
		if _, ok := s.Match(hn); !ok {
			t.Errorf("specialized regex should match %s", hn)
		}
	}
	// And the capture plan is preserved.
	ext, _ := s.Match(hosts[0])
	if ext.Hint != "rcmdva" {
		t.Errorf("hint = %q", ext.Hint)
	}
}

func TestSpecializeFixedWidth(t *testing.T) {
	// A [^\.]+ that always matches a 2-letter string becomes [a-z]{2}
	// (the paper's "bb"/"ce"/"ra" NTT case).
	r := New(geodict.HintCLLI,
		Component{Kind: KindAny},
		Component{Kind: KindDot},
		Component{Kind: KindAlphaFixed, N: 6, Capture: true, Role: RoleHint},
		Component{Kind: KindDigits},
		Component{Kind: KindDot},
		Component{Kind: KindAlphaFixed, N: 2, Capture: true, Role: RoleCountry},
		Component{Kind: KindDot},
		Component{Kind: KindNotDot},
		Component{Kind: KindLiteral, Lit: ".gin.ntt.net"},
	)
	hosts := []string{
		"ae-2.r20.snjsca04.us.bb.gin.ntt.net",
		"xe-0.a02.sttlwa01.us.ce.gin.ntt.net",
		"ae-7.r02.mlanit02.it.ra.gin.ntt.net",
	}
	s := Specialize(r, hosts)
	if got := s.String(); got != `^.+\.([a-z]{6})\d+\.([a-z]{2})\.[a-z]{2}\.gin\.ntt\.net$` {
		t.Errorf("specialized = %s", got)
	}
}

// TestSpecializeLongLabelInvalid: phase 3 over a first label of 70
// letters builds [a-z]{70}, which ParsePattern refuses, so a
// conventions file holding it could not be read back. Validate must
// refuse it, which drops the candidate from learning, and like every
// regex Validate refuses it builds no matcher.
func TestSpecializeLongLabelInvalid(t *testing.T) {
	r := New(geodict.HintIATA,
		Component{Kind: KindNotDot},
		Component{Kind: KindDot},
		Component{Kind: KindAlphaFixed, N: 3, Capture: true, Role: RoleHint},
		Component{Kind: KindDigits},
		Component{Kind: KindLiteral, Lit: ".he.net"},
	)
	hosts := []string{
		strings.Repeat("a", 70) + ".lhr1.he.net",
		strings.Repeat("b", 70) + ".sjc2.he.net",
	}
	s := Specialize(r, hosts)
	if got := s.String(); got != `^[a-z]{70}\.([a-z]{3})\d+\.he\.net$` {
		t.Fatalf("specialized = %s", got)
	}
	if err := s.Prepare(); err == nil {
		t.Errorf("specialized regex %s builds a matcher", s)
	}
	if _, err := ParsePattern(s.Hint, s.String(), s.Roles()); err == nil {
		t.Error("ParsePattern accepts a 70-letter repeat")
	}
	if err := s.Validate(); err == nil {
		t.Error("Validate accepts a regex ParsePattern refuses")
	}
}

func TestSpecializeNoMatchesReturnsOriginal(t *testing.T) {
	r := alterIATA()
	s := Specialize(r, []string{"nomatch.example.com"})
	if s != r {
		t.Error("no matches should return original regex")
	}
}

func TestSpecializeHeterogeneousKept(t *testing.T) {
	r := New(geodict.HintIATA,
		Component{Kind: KindNotDot},
		Component{Kind: KindDot},
		Component{Kind: KindAlphaFixed, N: 3, Capture: true, Role: RoleHint},
		Component{Kind: KindLiteral, Lit: ".example.net"},
	)
	// First component matches "xe-1" (contains dash) and "ae1": mixed,
	// cannot be classified to a narrower class; stays [^\.]+.
	s := Specialize(r, []string{"xe-1.sfo.example.net", "ae1.lax.example.net"})
	if s.Comps[0].Kind != KindNotDot {
		t.Errorf("heterogeneous component changed: %+v", s.Comps[0])
	}
}

func TestCloneIndependent(t *testing.T) {
	a := alterIATA()
	b := a.Clone()
	b.Comps[0] = Component{Kind: KindNotDot}
	if a.Comps[0].Kind != KindAny {
		t.Error("clone mutated original")
	}
	if a.Equal(b) {
		t.Error("modified clone should not equal original")
	}
	if !a.Equal(a.Clone()) {
		t.Error("fresh clone should equal original")
	}
}

func TestDedupe(t *testing.T) {
	rs := []*Regex{alterIATA(), alterCity(), alterIATA()}
	out := Dedupe(rs)
	if len(out) != 2 {
		t.Errorf("dedupe = %d, want 2", len(out))
	}
}

func TestSortStable(t *testing.T) {
	rs := []*Regex{alterCity(), alterIATA()}
	SortStable(rs)
	if rs[0].Hint != geodict.HintIATA {
		t.Error("sort should order by hint type first")
	}
}

func TestComponentMatches(t *testing.T) {
	r := alterIATA()
	parts, ok := r.ComponentMatches("0.xe-10-0-0.gw1.sfo16.alter.net")
	if !ok {
		t.Fatal("probe should match")
	}
	want := []string{"0.xe-10-0-0.gw1", ".", "sfo", "16", ".alter.net"}
	if !reflect.DeepEqual(parts, want) {
		t.Errorf("parts = %v, want %v", parts, want)
	}
}

func TestRoleString(t *testing.T) {
	for r, want := range map[Role]string{
		RoleNone: "none", RoleHint: "hint", RoleCLLI4: "clli4",
		RoleCLLI2: "clli2", RoleState: "state", RoleCountry: "country",
	} {
		if r.String() != want {
			t.Errorf("Role(%d).String() = %q", r, r.String())
		}
	}
}

func TestMatchNonMatching(t *testing.T) {
	r := alterIATA()
	if _, ok := r.Match("completely.different.example.org"); ok {
		t.Error("should not match foreign hostname")
	}
}

func TestComcastFacilityRegex(t *testing.T) {
	// Fig. 7f: ^[^\.]+\.(\d+[a-z]+)\.([a-z]{2})\.[a-z]+\.comcast\.net$ —
	// model the address capture with an Alnum capture; we use a literal
	// digit+alpha pattern via KindAlnum for the address.
	r := New(geodict.HintFacility,
		Component{Kind: KindNotDot},
		Component{Kind: KindDot},
		Component{Kind: KindAlnum, Capture: true, Role: RoleHint},
		Component{Kind: KindDot},
		Component{Kind: KindAlphaFixed, N: 2, Capture: true, Role: RoleState},
		Component{Kind: KindDot},
		Component{Kind: KindAlpha},
		Component{Kind: KindLiteral, Lit: ".comcast.net"},
	)
	ext, ok := r.Match("be-33.1118thave.ny.newyork.comcast.net")
	if !ok {
		t.Fatal("facility regex should match")
	}
	if ext.Hint != "1118thave" || ext.State != "ny" {
		t.Errorf("ext = %+v", ext)
	}
}
