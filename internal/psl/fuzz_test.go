package psl

import (
	"strings"
	"testing"
)

// trickyRules overlays the shapes the embedded list rarely combines: a
// wildcard and a normal rule on one key (the later line wins), a
// one-label exception, and an exception under a deeper wildcard.
const trickyRules = `com
*.ck
!www.ck
*.b.c
b.c
!c
uk
co.uk
*.kawasaki.jp
!city.kawasaki.jp
a.b.c.d.e
`

// FuzzPublicSuffix holds PublicSuffix and RegistrableDomain to the
// label-splitting oracle on the embedded list and on trickyRules, and
// checks that each result is a trailing portion of the (normalised)
// input and that RegistrableDomain is idempotent.
func FuzzPublicSuffix(f *testing.F) {
	f.Add("e0-0.cr1.lhr1.ntt.net")
	f.Add("ccnw.net.au")
	f.Add("...")
	f.Add("")
	f.Add("sub.www.ck")
	f.Add("UPPER.Case.COM.")
	f.Add("x.y.b.c")
	f.Add("q.a.b.c.d.e")
	f.Add("sub.city.kawasaki.jp")
	f.Add("Ünïcödé.\xff.co.uk")
	lists := []*List{MustDefault(), MustParse(trickyRules)}
	f.Fuzz(func(t *testing.T, domain string) {
		for _, l := range lists {
			suffix := l.PublicSuffix(domain)
			if want := oraclePublicSuffix(l, domain); suffix != want {
				t.Fatalf("PublicSuffix(%q) = %q, oracle %q", domain, suffix, want)
			}
			norm := strings.ToLower(strings.Trim(domain, "."))
			if suffix != "" && !strings.HasSuffix(norm, suffix) {
				t.Fatalf("PublicSuffix(%q) = %q is not a suffix of %q", domain, suffix, norm)
			}
			rd := l.RegistrableDomain(domain)
			if want := oracleRegistrableDomain(l, domain); rd != want {
				t.Fatalf("RegistrableDomain(%q) = %q, oracle %q", domain, rd, want)
			}
			if rd != "" {
				if !strings.HasSuffix(norm, rd) {
					t.Fatalf("RegistrableDomain(%q) = %q is not a suffix", domain, rd)
				}
				if l.RegistrableDomain(rd) != rd {
					t.Fatalf("RegistrableDomain is not idempotent on %q", rd)
				}
			}
		}
	})
}

// FuzzParse: arbitrary rule files must never panic, and a list that
// parses answers like the oracle.
func FuzzParse(f *testing.F) {
	f.Add("com\nnet\n*.ck\n!www.ck\n")
	f.Add("// comment only\n")
	f.Add("*")
	f.Add("!")
	f.Add(trickyRules)
	f.Fuzz(func(t *testing.T, rules string) {
		l, err := Parse(strings.NewReader(rules))
		if err != nil {
			return
		}
		for _, d := range []string{"a.b.example.com", "x.www.ck", "q.a.b.c.d.e"} {
			if got, want := l.PublicSuffix(d), oraclePublicSuffix(l, d); got != want {
				t.Fatalf("PublicSuffix(%q) = %q, oracle %q", d, got, want)
			}
		}
	})
}
