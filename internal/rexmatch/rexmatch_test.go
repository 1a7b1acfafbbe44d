package rexmatch

import (
	"regexp"
	"strings"
	"testing"
)

// render builds the stdlib pattern a spec sequence corresponds to, for
// differential assertions.
func render(specs []Spec) string {
	var b strings.Builder
	b.WriteByte('^')
	for _, s := range specs {
		if s.Capture {
			b.WriteByte('(')
		}
		switch s.Op {
		case OpLit:
			b.WriteString(regexp.QuoteMeta(s.Lit))
		case OpAny:
			b.WriteString(`.+`)
		case OpNotDot:
			b.WriteString(`[^\.]+`)
		case OpNotDash:
			b.WriteString(`[^-]+`)
		case OpAlpha:
			b.WriteString(`[a-z]+`)
		case OpAlphaFixed:
			b.WriteString(`[a-z]{`)
			b.WriteString(strings.Repeat("", 0))
			for _, d := range intDigits(s.N) {
				b.WriteByte(d)
			}
			b.WriteByte('}')
		case OpDigits:
			b.WriteString(`\d+`)
		case OpDigitsOpt:
			b.WriteString(`\d*`)
		case OpAlnum:
			b.WriteString(`[a-z\d]+`)
		}
		if s.Capture {
			b.WriteByte(')')
		}
	}
	b.WriteByte('$')
	return b.String()
}

func intDigits(n int) []byte {
	var out []byte
	if n == 0 {
		return []byte{'0'}
	}
	for n > 0 {
		out = append([]byte{byte('0' + n%10)}, out...)
		n /= 10
	}
	return out
}

// diff cross-checks a program against the stdlib engine on one input:
// same match verdict, and identical spans for every component.
func diff(t *testing.T, specs []Spec, input string) {
	t.Helper()
	p, err := Compile(specs)
	if err != nil {
		t.Fatalf("Compile(%v): %v", specs, err)
	}
	// All-capture variant so every component span is visible.
	all := make([]Spec, len(specs))
	copy(all, specs)
	for i := range all {
		all[i].Capture = true
	}
	re := regexp.MustCompile(render(all))
	want := re.FindStringSubmatch(input)
	var res Result
	got := p.Run(input, &res)
	if (want != nil) != got {
		t.Fatalf("%q on %q: stdlib match=%v, rexmatch match=%v", render(all), input, want != nil, got)
	}
	if !got {
		return
	}
	parts := res.Parts(nil)
	if len(parts) != len(want)-1 {
		t.Fatalf("%q on %q: %d parts, stdlib %d groups", render(all), input, len(parts), len(want)-1)
	}
	for i, part := range parts {
		if part != want[i+1] {
			t.Fatalf("%q on %q: part %d = %q, stdlib %q", render(all), input, i, part, want[i+1])
		}
	}
}

func TestDialectAgainstStdlib(t *testing.T) {
	cases := []struct {
		specs  []Spec
		inputs []string
	}{
		// The paper's alter.net IATA convention: ^.+\.([a-z]{3})\d+\.alter\.net$
		{
			[]Spec{{Op: OpAny}, {Op: OpLit, Lit: "."}, {Op: OpAlphaFixed, N: 3, Capture: true},
				{Op: OpDigits}, {Op: OpLit, Lit: ".alter.net"}},
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
			[]Spec{{Op: OpNotDot, Capture: true}, {Op: OpLit, Lit: "."}, {Op: OpNotDot, Capture: true}},
			[]string{"a.b", "a.b.c", "ab", ".", "a.", ".b", "a..b"},
		},
		// .+ gives back across multiple dots (leftmost-first greed).
		{
			[]Spec{{Op: OpAny, Capture: true}, {Op: OpLit, Lit: "."}, {Op: OpNotDot, Capture: true}, {Op: OpLit, Lit: ".net"}},
			[]string{"a.b.c.net", "a.net.b.net", "x.net", "a.b.net"},
		},
		// \d* optional digits, zero-width at both ends.
		{
			[]Spec{{Op: OpAlpha, Capture: true}, {Op: OpDigitsOpt, Capture: true}},
			[]string{"abc", "abc12", "12", "abc12x", ""},
		},
		// Adjacent same-class repetitions split greedily left.
		{
			[]Spec{{Op: OpDigits, Capture: true}, {Op: OpDigitsOpt, Capture: true}},
			[]string{"1", "12", "123", "", "a1"},
		},
		// [^-]+ spanning dots but not dashes.
		{
			[]Spec{{Op: OpNotDash, Capture: true}, {Op: OpLit, Lit: "-"}, {Op: OpAlnum, Capture: true}},
			[]string{"a.b-c1", "a-b-c", "a-", "-b", "a.b.c-xyz9"},
		},
		// Split-CLLI shape: ([a-z]{4})([a-z]{2}) fixed widths.
		{
			[]Spec{{Op: OpAlphaFixed, N: 4, Capture: true}, {Op: OpAlphaFixed, N: 2, Capture: true},
				{Op: OpDigits}, {Op: OpLit, Lit: ".example.com"}},
			[]string{"nycmny83.example.com", "nycmn83.example.com", "nycmnyx83.example.com"},
		},
		// Literal-only program.
		{
			[]Spec{{Op: OpLit, Lit: "router.example.net"}},
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
			diff(t, c.specs, in)
		}
	}
}

func TestNonASCIIAndNewlineAgainstStdlib(t *testing.T) {
	specs := []Spec{{Op: OpAny, Capture: true}, {Op: OpLit, Lit: "."}, {Op: OpNotDot, Capture: true}}
	for _, in := range []string{
		"café.net", "a\nb.c", "\n.x", "\xff\xfe.ok", "a.\x80", "日本.jp",
	} {
		diff(t, specs, in)
	}
	notdash := []Spec{{Op: OpNotDash, Capture: true}, {Op: OpLit, Lit: "-"}, {Op: OpAny, Capture: true}}
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
	threeNotDot := []Spec{
		{Op: OpNotDot, Capture: true}, {Op: OpNotDot, Capture: true}, {Op: OpNotDot, Capture: true},
	}
	twoAny := []Spec{{Op: OpAny, Capture: true}, {Op: OpAny, Capture: true}}
	mixed := []Spec{{Op: OpAny, Capture: true}, {Op: OpNotDash, Capture: true}, {Op: OpNotDot, Capture: true}}
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
	}
	for _, specs := range [][]Spec{threeNotDot, twoAny, mixed} {
		for _, in := range inputs {
			diff(t, specs, in)
		}
	}
	// Rune counting composed with literals and positive classes.
	labeled := []Spec{
		{Op: OpNotDot, Capture: true}, {Op: OpLit, Lit: "."},
		{Op: OpAlphaFixed, N: 3, Capture: true},
	}
	for _, in := range []string{"héllo.net", "ی.net", "ی.nété", "日本.jpx"} {
		diff(t, labeled, in)
	}
}

func TestCompileDeclines(t *testing.T) {
	if _, err := Compile([]Spec{{Op: OpAlphaFixed, N: 0}}); err == nil {
		t.Fatal("repeat 0 accepted")
	}
	if _, err := Compile([]Spec{{Op: OpAlphaFixed, N: maxRepeat + 1}}); err == nil {
		t.Fatalf("repeat %d accepted", maxRepeat+1)
	}
	if _, err := Compile([]Spec{{Op: Op(250)}}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestCapturesSubset(t *testing.T) {
	specs := []Spec{
		{Op: OpAny}, {Op: OpLit, Lit: "."},
		{Op: OpAlphaFixed, N: 3, Capture: true},
		{Op: OpDigits}, {Op: OpLit, Lit: ".alter.net"},
	}
	p, err := Compile(specs)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCapture() != 1 || p.NumSpec() != 5 {
		t.Fatalf("NumCapture=%d NumSpec=%d", p.NumCapture(), p.NumSpec())
	}
	var res Result
	if !p.Run("0.xe-1.gw1.sfo16.alter.net", &res) {
		t.Fatal("no match")
	}
	if got := res.Part(2); got != "sfo" {
		t.Fatalf("captured component = %q, want sfo", got)
	}
}

// TestResultReuse drives one Result through matches of different
// shapes and sizes to ensure scratch resizing is sound.
func TestResultReuse(t *testing.T) {
	p1, _ := Compile([]Spec{{Op: OpAny, Capture: true}, {Op: OpLit, Lit: ".x"}})
	p2, _ := Compile([]Spec{{Op: OpAlpha, Capture: true}})
	var res Result
	for i := 0; i < 3; i++ {
		if !p1.Run("aaaa.bbbb.cccc.x", &res) {
			t.Fatal("p1 no match")
		}
		if got := res.Part(0); got != "aaaa.bbbb.cccc" {
			t.Fatalf("p1 capture %q", got)
		}
		if !p2.Run("zz", &res) {
			t.Fatal("p2 no match")
		}
		if got := res.Part(0); got != "zz" {
			t.Fatalf("p2 capture %q", got)
		}
		if p2.Run("z9", &res) {
			t.Fatal("p2 matched alnum")
		}
	}
}

// TestSteadyStateAllocs asserts the zero-alloc contract for a reused
// Result.
func TestSteadyStateAllocs(t *testing.T) {
	p, _ := Compile([]Spec{
		{Op: OpAny}, {Op: OpLit, Lit: "."},
		{Op: OpAlphaFixed, N: 3, Capture: true},
		{Op: OpDigits}, {Op: OpLit, Lit: ".alter.net"},
	})
	var res Result
	host := "0.xe-1.gw1.sfo16.alter.net"
	p.Run(host, &res) // size the scratch
	allocs := testing.AllocsPerRun(200, func() {
		if !p.Run(host, &res) {
			t.Fatal("no match")
		}
		if res.Part(2) != "sfo" {
			t.Fatal("bad capture")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Run allocates %.1f/op, want 0", allocs)
	}
}

// TestPathologicalBacktracking: memoization keeps heavy give-back
// cases cheap and correct (stdlib agrees on the verdict).
func TestPathologicalBacktracking(t *testing.T) {
	// ^(.+)\.(.+)\.(.+)\.(.+)\.zz$ over a long dotted non-matching tail.
	specs := []Spec{
		{Op: OpAny, Capture: true}, {Op: OpLit, Lit: "."},
		{Op: OpAny, Capture: true}, {Op: OpLit, Lit: "."},
		{Op: OpAny, Capture: true}, {Op: OpLit, Lit: "."},
		{Op: OpAny, Capture: true}, {Op: OpLit, Lit: ".zz"},
	}
	in := strings.Repeat("ab.", 60) + "yy"
	diff(t, specs, in) // no match, must terminate fast
	diff(t, specs, strings.Repeat("ab.", 60)+"zz")
}

func BenchmarkRunAlterIATA(b *testing.B) {
	p, _ := Compile([]Spec{
		{Op: OpAny}, {Op: OpLit, Lit: "."},
		{Op: OpAlphaFixed, N: 3, Capture: true},
		{Op: OpDigits}, {Op: OpLit, Lit: ".alter.net"},
	})
	var res Result
	host := "0.xe-10-0-0.gw1.sfo16.alter.net"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.Run(host, &res) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkStdlibAlterIATA(b *testing.B) {
	re := regexp.MustCompile(`^.+\.([a-z]{3})\d+\.alter\.net$`)
	host := "0.xe-10-0-0.gw1.sfo16.alter.net"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if re.FindStringSubmatch(host) == nil {
			b.Fatal("no match")
		}
	}
}
