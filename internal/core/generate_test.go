package core

import (
	"fmt"
	"testing"

	"hoiho/internal/geodict"
	"hoiho/internal/rex"
)

// tagAll runs stage 2 over every hostname of a fixture's corpus.
func tagAll(t *testing.T, f *fixture) []*Tagged {
	t.Helper()
	tg := &tagger{in: f.inputs()}
	var tagged []*Tagged
	for _, group := range f.corpus.GroupBySuffix(f.list) {
		for _, rh := range group.Hosts {
			if tgd := tg.tag(rh); tgd != nil {
				tagged = append(tagged, tgd)
			}
		}
	}
	return tagged
}

// TestBaseRegexesMatchSource asserts the fundamental generation
// invariant: every phase-1 regex built from a tagged hostname must match
// that hostname and extract the tagged geohint.
func TestBaseRegexesMatchSource(t *testing.T) {
	f := newFixture(t)
	hosts := []struct {
		city, region, country string
		hostname              string
	}{
		{"london", "", "gb", "zayo-ntt.mpr1.lhr15.uk.zip.zayo.com"},
		{"san jose", "ca", "us", "ae-2.r20.snjsca04.us.bb.gin.zayo.com"},
		{"san jose", "ca", "us", "ae2-0.agr2.snjs-ca.zayo.com"},
		{"newark", "nj", "us", "0.csi1.nwrknjnb-mse01.zayo.com"},
		{"palo alto", "ca", "us", "be-33.529bryant.ca.zayo.com"},
		{"munich", "by", "de", "pos-00008.munich1.de.zayo.com"},
		{"amsterdam", "", "nl", "core1.nlams2.zayo.com"},
		{"tokyo", "", "jp", "xe-1-2-0.gw3.tyo1.jp.zayo.com"},
	}
	for i, h := range hosts {
		f.addRouter(fmt.Sprintf("N%d", i), f.place(h.city, h.region, h.country), h.hostname)
	}
	tagged := tagAll(t, f)
	if len(tagged) != len(hosts) {
		t.Fatalf("tagged %d of %d hostnames", len(tagged), len(hosts))
	}
	total := 0
	for _, tg := range tagged {
		if !tg.HasTags() {
			t.Errorf("%s: no tags", tg.H.Full)
			continue
		}
		for _, tag := range tg.Apparent {
			regexes := baseRegexes(tg, tag)
			if len(regexes) == 0 {
				t.Errorf("%s: tag %q produced no regexes", tg.H.Full, tag.Text)
				continue
			}
			for _, re := range regexes {
				total++
				if err := re.Validate(); err != nil {
					t.Errorf("%s: invalid regex %s: %v", tg.H.Full, re, err)
					continue
				}
				ext, ok := re.Match(tg.H.Full)
				if !ok {
					t.Errorf("%s: regex %s does not match its source", tg.H.Full, re)
					continue
				}
				if ext.Hint != tag.Text {
					t.Errorf("%s: regex %s extracted %q, want %q", tg.H.Full, re, ext.Hint, tag.Text)
				}
				if tag.Country != "" && ext.Country != tag.Country {
					t.Errorf("%s: regex %s extracted country %q, want %q",
						tg.H.Full, re, ext.Country, tag.Country)
				}
			}
		}
	}
	if total < 12 {
		t.Errorf("only %d regexes generated across the corpus", total)
	}
}

// TestGenerateCandidatesDedupes checks the pool has no duplicates and
// respects the cap.
func TestGenerateCandidatesDedupes(t *testing.T) {
	f := newFixture(t)
	buildHENet(f)
	tagged := tagAll(t, f)
	pool := generateCandidates(tagged, 5)
	if len(pool) > 5 {
		t.Errorf("pool exceeds cap: %d", len(pool))
	}
	pool = generateCandidates(tagged, 4000)
	seen := make(map[string]bool)
	for _, r := range pool {
		if seen[r.Key()] {
			t.Errorf("duplicate regex in pool: %s", r)
		}
		seen[r.Key()] = true
	}
}

// Per-style end-to-end coverage: each convention family must produce a
// usable NC from a well-behaved corpus.
func TestPipelinePerStyle(t *testing.T) {
	type site struct {
		code                  string
		city, region, country string
	}
	cases := []struct {
		name   string
		format string // code placeholder, suffix appended
		hint   geodict.HintType
		sites  []site
	}{
		{
			name: "locode", format: "ae-%d.core%d.%s1", hint: geodict.HintLocode,
			sites: []site{
				{"nlams", "amsterdam", "", "nl"},
				{"defra", "frankfurt am main", "he", "de"},
				{"gblon", "london", "", "gb"},
				{"jptyo", "tokyo", "", "jp"},
			},
		},
		{
			name: "city-cc", format: "pos-%d.id%d.%s.de", hint: geodict.HintPlace,
			sites: []site{
				{"munich", "munich", "by", "de"},
				{"stuttgart", "stuttgart", "bw", "de"},
				{"dresden", "dresden", "sn", "de"},
				{"hamburg", "hamburg", "hh", "de"},
			},
		},
		{
			name: "split-clli", format: "xe-%d-0.agr%d.%s", hint: geodict.HintCLLI,
			sites: []site{
				{"snjs-ca", "san jose", "ca", "us"},
				{"sttl-wa", "seattle", "wa", "us"},
				{"nycm-ny", "new york", "ny", "us"},
				{"chcg-il", "chicago", "il", "us"},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t)
			suffix := "style.net"
			id := 0
			for _, s := range c.sites {
				loc := f.place(s.city, s.region, s.country)
				for i := 1; i <= 3; i++ {
					id++
					host := fmt.Sprintf(c.format, i, i, s.code)
					f.addRouter(fmt.Sprintf("N%d", id), loc,
						fmt.Sprintf("%s.%s", host, suffix))
				}
			}
			nc, tagged, err := RunSuffix(f.inputs(), DefaultConfig(), suffix)
			if err != nil {
				t.Fatal(err)
			}
			if nc == nil {
				t.Fatalf("no NC learned (%d tagged)", len(tagged))
			}
			if !nc.Class.Usable() {
				t.Errorf("class = %s (tally %+v)", nc.Class, nc.Tally)
			}
			found := false
			for _, ht := range nc.HintTypes() {
				if ht == c.hint {
					found = true
				}
			}
			if !found {
				t.Errorf("hint types = %v, want %v", nc.HintTypes(), c.hint)
			}
		})
	}
}

// TestLearnLocodeOverride reproduces the paper's "jptky" case: an
// operator uses a LOCODE-shaped code that the dictionary maps to
// Tokuyama to mean Tokyo; with the RTT evidence the pipeline must
// relearn it.
func TestLearnLocodeOverride(t *testing.T) {
	f := newFixture(t)
	sites := []struct {
		code                  string
		city, region, country string
		n                     int
	}{
		{"nlams", "amsterdam", "", "nl", 3},
		{"defra", "frankfurt am main", "he", "de", 3},
		{"gblon", "london", "", "gb", 3},
		{"jptky", "tokyo", "", "jp", 3}, // override: dictionary says Tokuyama
	}
	id := 0
	for _, s := range sites {
		loc := f.place(s.city, s.region, s.country)
		for i := 1; i <= s.n; i++ {
			id++
			f.addRouter(fmt.Sprintf("N%d", id), loc,
				fmt.Sprintf("ae-%d.core%d.%s1.locode.net", i, i, s.code))
		}
	}
	nc, _, err := RunSuffix(f.inputs(), DefaultConfig(), "locode.net")
	if err != nil || nc == nil {
		t.Fatalf("nc=%v err=%v", nc, err)
	}
	var tky *LearnedHint
	for _, lh := range nc.Learned {
		if lh.Hint == "jptky" {
			tky = lh
		}
	}
	if tky == nil {
		t.Fatalf("jptky not learned; learned=%v tally=%+v", nc.Learned, nc.Tally)
	}
	if tky.Loc.City != "tokyo" {
		t.Errorf("jptky learned as %s, want Tokyo", tky.Loc.String())
	}
	if !tky.Collide {
		t.Error("jptky collides with the dictionary entry for Tokuyama")
	}
}

// TestFacilityConvention exercises the comcast-style street-address
// convention end to end (paper figs. 6f, 7f).
func TestFacilityConvention(t *testing.T) {
	f := newFixture(t)
	sites := []struct {
		addr                  string
		city, region, country string
	}{
		{"529bryant", "palo alto", "ca", "us"},
		{"1118thave", "new york", "ny", "us"},
		{"350ecermak", "chicago", "il", "us"},
		{"60hudson", "new york", "ny", "us"},
	}
	id := 0
	for _, s := range sites {
		loc := f.place(s.city, s.region, s.country)
		for i := 1; i <= 3; i++ {
			id++
			f.addRouter(fmt.Sprintf("N%d", id), loc,
				fmt.Sprintf("be-%d.%s.%s.fac.net", i, s.addr, s.country))
		}
	}
	nc, tagged, err := RunSuffix(f.inputs(), DefaultConfig(), "fac.net")
	if err != nil {
		t.Fatal(err)
	}
	if nc == nil {
		nTags := 0
		for _, tg := range tagged {
			nTags += len(tg.Apparent)
		}
		t.Fatalf("no NC learned (%d tagged hostnames, %d tags)", len(tagged), nTags)
	}
	hasFacility := false
	for _, ht := range nc.HintTypes() {
		if ht == geodict.HintFacility {
			hasFacility = true
		}
	}
	if !hasFacility {
		t.Errorf("hint types = %v, want facility", nc.HintTypes())
	}
	g, ok := Geolocate(nc, f.dict, "be-9.529bryant.us.fac.net")
	if !ok || g.Loc.City != "palo alto" {
		t.Errorf("geolocate = %+v, %v", g, ok)
	}
}

// TestStaleHostnameCountedFP reproduces fig. 3a's evaluation effect: a
// stale hostname extracts a geohint that the RTTs contradict, and the
// convention charges it as a false positive rather than silently
// accepting it.
func TestStaleHostnameCountedFP(t *testing.T) {
	f := newFixture(t)
	buildHENet(f)
	// A router physically in Ashburn with a stale sjc hostname.
	f.addRouter("stale", f.place("ashburn", "va", "us"),
		"100ge9-1.core9.sjc1.he.net")
	nc, _, err := RunSuffix(f.inputs(), DefaultConfig(), "he.net")
	if err != nil || nc == nil {
		t.Fatalf("nc=%v err=%v", nc, err)
	}
	if nc.Tally.FP == 0 {
		t.Errorf("stale hostname should be a false positive, tally = %+v", nc.Tally)
	}
}

func TestHintCaptureSpecs(t *testing.T) {
	cases := map[geodict.HintType]rex.Kind{
		geodict.HintIATA:     rex.KindAlphaFixed,
		geodict.HintICAO:     rex.KindAlphaFixed,
		geodict.HintLocode:   rex.KindAlphaFixed,
		geodict.HintCLLI:     rex.KindAlphaFixed,
		geodict.HintPlace:    rex.KindAlpha,
		geodict.HintFacility: rex.KindAlnum,
	}
	for ht, kind := range cases {
		spec := hintCaptureSpec(ht, "x")
		if spec.kind != kind || spec.role != rex.RoleHint {
			t.Errorf("hintCaptureSpec(%v) = %+v", ht, spec)
		}
	}
}
