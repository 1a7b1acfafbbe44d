package rex

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"hoiho/internal/geodict"
)

// diff cross-checks the matcher against the stdlib engine on one
// input: the same match verdict, and the same span for every
// component.
func diff(t *testing.T, comps []Component, input string) {
	t.Helper()
	p, err := compile(comps)
	if err != nil {
		t.Fatalf("compile(%v): %v", comps, err)
	}
	r := New(geodict.HintNone, comps...)
	want, wantOK := stdlibComponentMatches(t, r, input)
	var res result
	if got := p.run(input, &res); got != wantOK {
		t.Fatalf("%s on %q: stdlib match=%v, matcher match=%v", r, input, wantOK, got)
	}
	if !wantOK {
		return
	}
	if got := res.parts(nil); !slices.Equal(got, want) {
		t.Fatalf("%s on %q: parts %q, stdlib %q", r, input, got, want)
	}
}

func TestDialectAgainstStdlib(t *testing.T) {
	cases := []struct {
		comps  []Component
		inputs []string
	}{
		// The paper's alter.net IATA convention: ^.+\.([a-z]{3})\d+\.alter\.net$
		{
			alterIATA().Comps,
			[]string{
				"0.xe-10-0-0.gw1.sfo16.alter.net",
				"a.b.lhr1.alter.net",
				"lhr1.alter.net",    // .+ needs a leading label
				"a.lhrx1.alter.net", // four letters before digits
				"a.lhr.alter.net",   // no digits
				"",
			},
		},
		// Greedy/backtrack interplay: ([^\.]+) must give back to the dot.
		{
			[]Component{{Kind: KindNotDot, Capture: true}, {Kind: KindDot}, {Kind: KindNotDot, Capture: true}},
			[]string{"a.b", "a.b.c", "ab", ".", "a.", ".b", "a..b"},
		},
		// .+ gives back across multiple dots (leftmost-first greed).
		{
			[]Component{{Kind: KindAny, Capture: true}, {Kind: KindDot}, {Kind: KindNotDot, Capture: true},
				{Kind: KindLiteral, Lit: ".net"}},
			[]string{"a.b.c.net", "a.net.b.net", "x.net", "a.b.net"},
		},
		// \d* optional digits, zero-width at both ends.
		{
			[]Component{{Kind: KindAlpha, Capture: true}, {Kind: KindDigitsOpt, Capture: true}},
			[]string{"abc", "abc12", "12", "abc12x", ""},
		},
		// Adjacent same-class repetitions split greedily left.
		{
			[]Component{{Kind: KindDigits, Capture: true}, {Kind: KindDigitsOpt, Capture: true}},
			[]string{"1", "12", "123", "", "a1"},
		},
		// [^-]+ spanning dots but not dashes.
		{
			[]Component{{Kind: KindNotDash, Capture: true}, {Kind: KindDash}, {Kind: KindAlnum, Capture: true}},
			[]string{"a.b-c1", "a-b-c", "a-", "-b", "a.b.c-xyz9"},
		},
		// Split-CLLI shape: ([a-z]{4})([a-z]{2}) fixed widths.
		{
			[]Component{{Kind: KindAlphaFixed, N: 4, Capture: true}, {Kind: KindAlphaFixed, N: 2, Capture: true},
				{Kind: KindDigits}, {Kind: KindLiteral, Lit: ".example.com"}},
			[]string{"nycmny83.example.com", "nycmn83.example.com", "nycmnyx83.example.com"},
		},
		// Literal-only program.
		{
			[]Component{{Kind: KindLiteral, Lit: "router.example.net"}},
			[]string{"router.example.net", "router.example.nex", "xrouter.example.net", ""},
		},
		// Empty program matches only the empty string.
		{
			nil,
			[]string{"", "a"},
		},
	}
	for _, c := range cases {
		for _, in := range c.inputs {
			diff(t, c.comps, in)
		}
	}
}

func TestNonASCIIAndNewlineAgainstStdlib(t *testing.T) {
	comps := []Component{{Kind: KindAny, Capture: true}, {Kind: KindDot}, {Kind: KindNotDot, Capture: true}}
	for _, in := range []string{
		"café.net", "a\nb.c", "\n.x", "\xff\xfe.ok", "a.\x80", "日本.jp",
	} {
		diff(t, comps, in)
	}
	notdash := []Component{{Kind: KindNotDash, Capture: true}, {Kind: KindDash}, {Kind: KindAny, Capture: true}}
	for _, in := range []string{"a\n-b", "\xc3\xa9-x", "--"} {
		diff(t, notdash, in)
	}
}

// TestRuneCountingAgainstStdlib pins the divergence the differential
// fuzz target found: stdlib repetition counts are in runes, so adjacent
// negated-class repetitions must not split a multi-byte rune the way a
// byte-wise scan would. "0ی" is three bytes but two runes — three
// one-or-more groups must NOT match it.
func TestRuneCountingAgainstStdlib(t *testing.T) {
	threeNotDot := []Component{
		{Kind: KindNotDot, Capture: true}, {Kind: KindNotDot, Capture: true}, {Kind: KindNotDot, Capture: true},
	}
	twoAny := []Component{{Kind: KindAny, Capture: true}, {Kind: KindAny, Capture: true}}
	mixed := []Component{{Kind: KindAny, Capture: true}, {Kind: KindNotDash, Capture: true}, {Kind: KindNotDot, Capture: true}}
	inputs := []string{
		"0ی",                    // the fuzz-found witness: 3 bytes, 2 runes
		"é",                     // 2 bytes, 1 rune
		"éé",                    // 4 bytes, 2 runes
		"日本語",                   // 9 bytes, 3 runes
		"a\xffb",                // invalid byte: one U+FFFD unit per byte
		"\xff\xfe",              // two invalid bytes = two units
		"\xe0\x80",              // truncated sequence: forward-decodes as 1+1
		"café.net",              // multi-byte rune mid-label
		"0ی0ی",                  // alternating widths
		strings.Repeat("é", 20), // give-back over many 2-byte units
		"\xc3a",                 // lead byte then ASCII: two units
		"x\xe6\x97a",            // truncated 3-byte sequence then ASCII
	}
	for _, comps := range [][]Component{threeNotDot, twoAny, mixed} {
		for _, in := range inputs {
			diff(t, comps, in)
		}
	}
	// Rune counting composed with literals and positive classes.
	labeled := []Component{
		{Kind: KindNotDot, Capture: true}, {Kind: KindDot},
		{Kind: KindAlphaFixed, N: 3, Capture: true},
	}
	for _, in := range []string{"héllo.net", "ی.net", "ی.nété", "日本.jpx"} {
		diff(t, labeled, in)
	}
	// A negated class right before a literal dot or [a-z]{3}, with a
	// multi-byte rune on the boundary the give-back crosses.
	beforeDot := []Component{
		{Kind: KindNotDash, Capture: true}, {Kind: KindNotDot, Capture: true}, {Kind: KindDot},
		{Kind: KindAny, Capture: true},
	}
	beforeAlpha := []Component{
		{Kind: KindNotDot, Capture: true}, {Kind: KindAlphaFixed, N: 3, Capture: true},
	}
	for _, in := range []string{
		"aé日.xyz", "é.é", "日.本.語", "\xc3.x", "a\xe2.b\xe2", ".é", "éé.", "\xe6\x97.a",
		"éabc", "aéxyz", "日abc", "abcé", "\xc3abc", "\xe2\x82abc", "ab\xc3", "é",
	} {
		diff(t, beforeDot, in)
		diff(t, beforeAlpha, in)
	}
}

// TestCompileDeclines: the matcher refuses exactly the components
// Validate refuses — fixed repeats outside 1-maxFixed and unknown
// kinds — and builds the bounds themselves.
func TestCompileDeclines(t *testing.T) {
	for _, c := range []Component{
		{Kind: KindAlphaFixed, N: 0},
		{Kind: KindAlphaFixed, N: maxFixed + 1},
		{Kind: KindAlnum + 1},
	} {
		if _, err := compile([]Component{c}); err == nil {
			t.Errorf("compile accepts %+v", c)
		}
	}
	for _, n := range []int{1, maxFixed} {
		if _, err := compile([]Component{{Kind: KindAlphaFixed, N: n}}); err != nil {
			t.Errorf("compile refuses [a-z]{%d}: %v", n, err)
		}
	}
}

func TestCapturesSubset(t *testing.T) {
	p, err := compile(alterIATA().Comps)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if !p.run("0.xe-1.gw1.sfo16.alter.net", &res) {
		t.Fatal("no match")
	}
	if got := res.part(2); got != "sfo" {
		t.Fatalf("captured component = %q, want sfo", got)
	}
}

// TestResultReuse drives one result through matches of different
// shapes and sizes to ensure scratch resizing is sound.
func TestResultReuse(t *testing.T) {
	p1, _ := compile([]Component{{Kind: KindAny, Capture: true}, {Kind: KindLiteral, Lit: ".x"}})
	p2, _ := compile([]Component{{Kind: KindAlpha, Capture: true}})
	var res result
	for i := 0; i < 3; i++ {
		if !p1.run("aaaa.bbbb.cccc.x", &res) {
			t.Fatal("p1 no match")
		}
		if got := res.part(0); got != "aaaa.bbbb.cccc" {
			t.Fatalf("p1 capture %q", got)
		}
		if !p2.run("zz", &res) {
			t.Fatal("p2 no match")
		}
		if got := res.part(0); got != "zz" {
			t.Fatalf("p2 capture %q", got)
		}
		if p2.run("z9", &res) {
			t.Fatal("p2 matched alnum")
		}
	}
}

// TestSteadyStateAllocs asserts the zero-alloc contract for a reused
// result.
func TestSteadyStateAllocs(t *testing.T) {
	p, _ := compile(alterIATA().Comps)
	var res result
	// The second host is non-ASCII, so run first marks the states
	// inside its runes dead.
	for _, host := range []string{"0.xe-1.gw1.sfo16.alter.net", "é.xe-1.gw日1.sfo16.alter.net"} {
		p.run(host, &res) // size the scratch
		allocs := testing.AllocsPerRun(200, func() {
			if !p.run(host, &res) {
				t.Fatal("no match")
			}
			if res.part(2) != "sfo" {
				t.Fatal("bad capture")
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state run on %q allocates %.1f/op, want 0", host, allocs)
		}
	}
}

// TestPathologicalBacktracking: memoization keeps heavy give-back
// cases cheap and correct (stdlib agrees on the verdict).
func TestPathologicalBacktracking(t *testing.T) {
	// ^(.+)\.(.+)\.(.+)\.(.+)\.zz$ over a long dotted non-matching tail.
	comps := []Component{
		{Kind: KindAny, Capture: true}, {Kind: KindDot},
		{Kind: KindAny, Capture: true}, {Kind: KindDot},
		{Kind: KindAny, Capture: true}, {Kind: KindDot},
		{Kind: KindAny, Capture: true}, {Kind: KindLiteral, Lit: ".zz"},
	}
	in := strings.Repeat("ab.", 60) + "yy"
	diff(t, comps, in) // no match, must terminate fast
	diff(t, comps, strings.Repeat("ab.", 60)+"zz")
	// The same over two-byte runes: every give-back first lands inside
	// an é, a dead state.
	diff(t, comps, strings.Repeat("é.", 60)+"yy")
	diff(t, comps, strings.Repeat("é.", 60)+"zz")
}

// TestKinds pins the kinds table: every kind renders, ParsePattern
// reads the rendering back, and compile gives it the class and bounds
// its row names. A kind added without a row fails here.
func TestKinds(t *testing.T) {
	if len(kinds) != int(KindAlnum)+1 {
		t.Fatalf("kinds has %d rows, want one per kind up to KindAlnum", len(kinds))
	}
	hint := Component{Kind: KindAlphaFixed, N: 3, Capture: true, Role: RoleHint}
	for k := KindLiteral; k <= KindAlnum; k++ {
		row := kinds[k]
		c := Component{Kind: k}
		switch k {
		case KindLiteral:
			c.Lit = "x"
		case KindAlphaFixed:
			c.N = 3
		}
		if k != KindLiteral && row.syntax == "" {
			t.Errorf("kind %d: no syntax", k)
			continue
		}
		r := New(geodict.HintIATA, c, hint)
		parsed, err := ParsePattern(r.Hint, r.String(), r.Roles())
		if err != nil {
			t.Errorf("kind %d: %s does not parse: %v", k, r, err)
		} else if len(parsed.Comps) != 2 || parsed.Comps[0] != c {
			t.Errorf("kind %d: %s parses to %+v", k, r, parsed.Comps)
		}
		p, err := compile([]Component{c})
		if err != nil {
			t.Errorf("kind %d: %v", k, err)
			continue
		}
		got := p.specs[0]
		wantMin, wantMax := row.min, int32(-1)
		switch {
		case row.cls == clsLit:
			text := row.fixed
			if k == KindLiteral {
				text = c.Lit
			}
			if text == "" || got.lit != text {
				t.Errorf("kind %d: fixed text %q, row %q", k, got.lit, text)
			}
			wantMin, wantMax = int32(len(text)), int32(len(text))
		case k == KindAlphaFixed:
			wantMin, wantMax = int32(c.N), int32(c.N)
		}
		if got.cls != row.cls || got.min != wantMin || got.max != wantMax {
			t.Errorf("kind %d: compiled class %d bounds [%d,%d], want class %d bounds [%d,%d]",
				k, got.cls, got.min, got.max, row.cls, wantMin, wantMax)
		}
	}
}

func BenchmarkRunAlterIATA(b *testing.B) {
	p, _ := compile(alterIATA().Comps)
	var res result
	host := "0.xe-10-0-0.gw1.sfo16.alter.net"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.run(host, &res) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkStdlibAlterIATA(b *testing.B) {
	re := regexp.MustCompile(alterIATA().String())
	host := "0.xe-10-0-0.gw1.sfo16.alter.net"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if re.FindStringSubmatch(host) == nil {
			b.Fatal("no match")
		}
	}
}
