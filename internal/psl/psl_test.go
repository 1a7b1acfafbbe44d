package psl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestPublicSuffixBasic(t *testing.T) {
	l := MustDefault()
	cases := []struct {
		domain, want string
	}{
		{"ntt.net", "net"},
		{"e0-0.cr1.lhr1.ntt.net", "net"},
		{"cogentco.com", "com"},
		{"ccnw.net.au", "net.au"},
		{"router.ccnw.net.au", "net.au"},
		{"foo.co.uk", "co.uk"},
		{"foo.uk", "uk"},
		{"example.de", "de"},
		{"unknown-tld.zz", "zz"}, // implicit * rule
		{"COM", "com"},
		{"", ""},
	}
	for _, c := range cases {
		if got := l.PublicSuffix(c.domain); got != c.want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", c.domain, got, c.want)
		}
	}
}

func TestPublicSuffixWildcardAndException(t *testing.T) {
	l := MustDefault()
	cases := []struct {
		domain, want string
	}{
		// *.ck: any single label under ck is a public suffix...
		{"foo.bar.ck", "bar.ck"},
		{"bar.ck", "bar.ck"},
		// ...except www.ck, which the exception rule carves out.
		{"www.ck", "ck"},
		{"sub.www.ck", "ck"},
		{"x.y.kawasaki.jp", "y.kawasaki.jp"},
		{"city.kawasaki.jp", "kawasaki.jp"},
		{"sub.city.kawasaki.jp", "kawasaki.jp"},
	}
	for _, c := range cases {
		if got := l.PublicSuffix(c.domain); got != c.want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", c.domain, got, c.want)
		}
	}
}

func TestRegistrableDomain(t *testing.T) {
	l := MustDefault()
	cases := []struct {
		domain, want string
	}{
		{"e0-0.cr1.lhr1.ntt.net", "ntt.net"},
		{"ntt.net", "ntt.net"},
		{"net", ""}, // a public suffix has no registrable domain
		{"router.ccnw.net.au", "ccnw.net.au"},
		{"a.b.c.d.level3.net", "level3.net"},
		{"xe-0-0-0.gw1.sfo16.alter.net", "alter.net"},
		{"foo.co.uk", "foo.co.uk"},
		{"co.uk", ""},
		{"", ""},
		{"WWW.Example.COM", "example.com"},
	}
	for _, c := range cases {
		if got := l.RegistrableDomain(c.domain); got != c.want {
			t.Errorf("RegistrableDomain(%q) = %q, want %q", c.domain, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("*")); err == nil {
		t.Error("bare * rule should be rejected")
	}
	if _, err := Parse(strings.NewReader("!")); err == nil {
		t.Error("empty exception rule should be rejected")
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	l := MustParse(`
// a comment
com
net  // trailing junk after whitespace is ignored

`)
	if l.Len() != 2 {
		t.Errorf("Len() = %d, want 2", l.Len())
	}
	if got := l.PublicSuffix("example.net"); got != "net" {
		t.Errorf("PublicSuffix(example.net) = %q", got)
	}
}

func TestLongestRulePrevails(t *testing.T) {
	l := MustParse("uk\nco.uk")
	if got := l.PublicSuffix("x.co.uk"); got != "co.uk" {
		t.Errorf("longest rule should prevail, got %q", got)
	}
}

func TestRegistrableDomainProperties(t *testing.T) {
	l := MustDefault()
	f := func(a, b, c uint8) bool {
		// Compose random 3-label domains over a fixed alphabet of labels.
		labels := []string{"alpha", "beta", "gamma", "net", "com", "ntt", "core1"}
		domain := labels[int(a)%len(labels)] + "." + labels[int(b)%len(labels)] + "." + labels[int(c)%len(labels)]
		rd := l.RegistrableDomain(domain)
		if rd == "" {
			return true
		}
		// The registrable domain must be a suffix of the input and must
		// itself have the same registrable domain (idempotence).
		if !strings.HasSuffix(domain, rd) {
			return false
		}
		return l.RegistrableDomain(rd) == rd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPublicSuffixNeverEmpty(t *testing.T) {
	l := MustDefault()
	for _, d := range []string{"a", "a.b", "a.b.c", "x.net"} {
		if got := l.PublicSuffix(d); got == "" {
			t.Errorf("PublicSuffix(%q) = empty", d)
		}
	}
	// Empty labels make a hostname invalid: no suffix, no registrable
	// domain.
	if got := l.PublicSuffix("weird..dots"); got != "" {
		t.Errorf("PublicSuffix(weird..dots) = %q, want empty", got)
	}
	if got := l.RegistrableDomain("weird..dots"); got != "" {
		t.Errorf("RegistrableDomain(weird..dots) = %q, want empty", got)
	}
}

func TestTrailingDots(t *testing.T) {
	l := MustDefault()
	if got := l.RegistrableDomain("ntt.net."); got != "ntt.net" {
		t.Errorf("trailing dot: got %q", got)
	}
	if got := l.PublicSuffix(".net"); got != "net" {
		t.Errorf("leading dot: got %q", got)
	}
}

func TestDefaultListSize(t *testing.T) {
	l := MustDefault()
	if l.Len() < 150 {
		t.Errorf("embedded list has %d rules, want >= 150", l.Len())
	}
}

// TestOracleAgreesOnCorpus runs every hostname of the golden corpus
// through both lists and holds the walk to the label-splitting oracle,
// which is what keeps learning's GroupBySuffix byte-identical.
func TestOracleAgreesOnCorpus(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "corpus.names"))
	if err != nil {
		t.Fatal(err)
	}
	lists := []*List{MustDefault(), MustParse(trickyRules)}
	hosts := 0
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		host := f[len(f)-1]
		hosts++
		for _, l := range lists {
			for _, d := range []string{host, strings.ToUpper(host), host + "."} {
				if got, want := l.PublicSuffix(d), oraclePublicSuffix(l, d); got != want {
					t.Errorf("PublicSuffix(%q) = %q, oracle %q", d, got, want)
				}
				if got, want := l.RegistrableDomain(d), oracleRegistrableDomain(l, d); got != want {
					t.Errorf("RegistrableDomain(%q) = %q, oracle %q", d, got, want)
				}
			}
		}
	}
	if hosts < 700 {
		t.Fatalf("read %d hostnames, want the whole corpus", hosts)
	}
}

// TestRegistrableDomainAllocs pins the serving path's PSL dispatch at
// zero allocations for a lower-case hostname.
func TestRegistrableDomainAllocs(t *testing.T) {
	l := MustDefault()
	var rd string
	allocs := testing.AllocsPerRun(100, func() {
		rd = l.RegistrableDomain("xe-1.core9.ash1.he.net")
	})
	if rd != "he.net" || allocs != 0 {
		t.Errorf("RegistrableDomain = %q in %v allocations, want he.net in 0", rd, allocs)
	}
}
