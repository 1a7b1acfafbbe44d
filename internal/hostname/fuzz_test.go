package hostname

import (
	"strings"
	"testing"
)

// FuzzParseHostname feeds arbitrary hostname/suffix pairs to Parse: it
// must never panic, and every accepted hostname must satisfy the
// tokenization invariants — the prefix/suffix split reconstructs the
// normalized input, every span is a faithful slice of the prefix, and
// every run is a purely alphabetic slice of its span.
func FuzzParseHostname(f *testing.F) {
	f.Add("0.xe-10-0-0.gw1.sfo16.alter.net", "alter.net")
	f.Add("zayo-ntt.mpr1.lhr15.uk.zip.zayo.com", "zayo.com")
	f.Add("ae-2.r01.nycmny01.us.bb.gin.ntt.net", "ntt.net")
	f.Add("UPPER-Case.Mixed.Example.NET.", "example.net")
	f.Add("a..b.example.org", "example.org")
	f.Add("_tcp.-x-.9.example.org", "example.org")
	f.Add("example.org", "example.org")
	f.Add("", "")
	f.Add("host.net", "xnet")
	f.Fuzz(func(t *testing.T, full, suffix string) {
		h, err := Parse(full, suffix)
		if err != nil {
			return
		}
		if h.Full != strings.ToLower(strings.TrimSuffix(full, ".")) {
			t.Fatalf("Full %q is not the normalized input %q", h.Full, full)
		}
		if !strings.HasSuffix(h.Full, "."+h.Suffix) {
			t.Fatalf("Full %q does not end in .%s", h.Full, h.Suffix)
		}
		if h.Prefix+"."+h.Suffix != h.Full {
			t.Fatalf("prefix %q + suffix %q does not reconstruct %q", h.Prefix, h.Suffix, h.Full)
		}
		if strings.Join(h.Labels, ".") != h.Prefix {
			t.Fatalf("labels %v do not reconstruct prefix %q", h.Labels, h.Prefix)
		}
		for i := range h.Spans {
			sp := &h.Spans[i]
			if sp.Label < 0 || sp.Label >= len(h.Labels) {
				t.Fatalf("span %q has label index %d out of range", sp.Text, sp.Label)
			}
			if sp.Start < 0 || sp.Start+len(sp.Text) > len(h.Prefix) {
				t.Fatalf("span %q at %d overruns prefix %q", sp.Text, sp.Start, h.Prefix)
			}
			if got := h.Prefix[sp.Start : sp.Start+len(sp.Text)]; got != sp.Text {
				t.Fatalf("span %q at %d does not slice prefix %q (got %q)", sp.Text, sp.Start, h.Prefix, got)
			}
			for _, r := range sp.Runs {
				if r.Start < 0 || r.Start+len(r.Text) > len(sp.Text) {
					t.Fatalf("run %q at %d overruns span %q", r.Text, r.Start, sp.Text)
				}
				if got := sp.Text[r.Start : r.Start+len(r.Text)]; got != r.Text {
					t.Fatalf("run %q at %d does not slice span %q", r.Text, r.Start, sp.Text)
				}
				if r.Text == "" {
					t.Fatalf("empty run in span %q", sp.Text)
				}
				for j := 0; j < len(r.Text); j++ {
					if !isAlpha(r.Text[j]) {
						t.Fatalf("run %q in span %q contains non-alpha byte", r.Text, sp.Text)
					}
				}
			}
		}
	})
}
