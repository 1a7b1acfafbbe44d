package core

import (
	"fmt"
	"net/netip"
	"testing"

	"hoiho/internal/geodict"
	"hoiho/internal/itdk"
	"hoiho/internal/rex"
)

// mkIATARegex builds ^.+\.([a-z]{3})\d*\.<suffix>$.
func mkIATARegex(suffix string) *rex.Regex {
	re, err := rex.ParsePattern(geodict.HintIATA,
		`^.+\.([a-z]{3})\d*\.`+quoteSuffix(suffix)+`$`, []rex.Role{rex.RoleHint})
	if err != nil {
		panic(err)
	}
	return re
}

func quoteSuffix(s string) string {
	out := ""
	for _, r := range s {
		if r == '.' {
			out += `\.`
		} else {
			out += string(r)
		}
	}
	return out
}

func TestOutcomeClassification(t *testing.T) {
	f := newFixture(t)
	london := f.place("london", "", "gb")
	tokyo := f.place("tokyo", "", "jp")

	// N1: London router, hostname says lhr -> TP.
	f.addRouter("N1", london, "ae-1.cr1.lhr1.out.net")
	// N2: London router, hostname says nrt (Tokyo) -> FP.
	f.addRouter("N2", london, "ae-1.cr1.nrt1.out.net")
	// N3: Tokyo router, hostname says zzq (not in dictionary) -> UNK.
	f.addRouter("N3", tokyo, "ae-1.cr1.zzq1.out.net")
	// N4: London router, hostname in a shape the regex cannot match but
	// carrying an apparent geohint -> FN.
	f.addRouter("N4", london, "lhr-cr1.out.net")

	tagged := tagAll(t, f)
	if len(tagged) != 4 {
		t.Fatalf("tagged = %d", len(tagged))
	}
	e := newEvalCtx(f.inputs(), DefaultConfig())
	re := mkIATARegex("out.net")
	ev := e.evaluateSet([]*rex.Regex{re}, tagged)
	perHost := e.detail([]*rex.Regex{re}, tagged)

	want := map[string]Outcome{
		"ae-1.cr1.lhr1.out.net": OutcomeTP,
		"ae-1.cr1.nrt1.out.net": OutcomeFP,
		"ae-1.cr1.zzq1.out.net": OutcomeUNK,
		"lhr-cr1.out.net":       OutcomeFN,
	}
	for hi, ho := range perHost {
		host := tagged[hi].H.Full
		if ho.Outcome != want[host] {
			t.Errorf("%s: outcome = %v, want %v", host, ho.Outcome, want[host])
		}
	}
	if ev.Tally.TP != 1 || ev.Tally.FP != 1 || ev.Tally.UNK != 1 || ev.Tally.FN != 1 {
		t.Errorf("tally = %+v", ev.Tally)
	}
}

func TestOutcomeNoneWithoutRTT(t *testing.T) {
	f := newFixture(t)
	// Hostname with an IATA-shaped token but no RTT samples at all.
	f.nextIP++
	r := &itdk.Router{ID: "N1", Interfaces: []itdk.Interface{{
		Addr:     netip.MustParseAddr(fmt.Sprintf("203.0.113.%d", f.nextIP%250+1)),
		Hostname: "ae-1.cr1.lhr1.out.net",
	}}}
	if err := f.corpus.Add(r); err != nil {
		t.Fatal(err)
	}
	tagged := tagAll(t, f)
	e := newEvalCtx(f.inputs(), DefaultConfig())
	perHost := e.detail([]*rex.Regex{mkIATARegex("out.net")}, tagged)
	if perHost[0].Outcome != OutcomeNone {
		t.Errorf("no-RTT router outcome = %v, want none", perHost[0].Outcome)
	}
}

// TestAnnotationContradictionIsFP: a regex extracting a country code
// that contradicts every dictionary interpretation yields FP.
func TestAnnotationContradictionIsFP(t *testing.T) {
	f := newFixture(t)
	london := f.place("london", "", "gb")
	// Hostname pairs lhr with "jp" — the annotation contradicts GB.
	f.addRouter("N1", london, "ae-1.cr1.lhr1.jp.out.net")
	tagged := tagAll(t, f)
	re, err := rex.ParsePattern(geodict.HintIATA,
		`^.+\.([a-z]{3})\d*\.([a-z]{2})\.out\.net$`,
		[]rex.Role{rex.RoleHint, rex.RoleCountry})
	if err != nil {
		t.Fatal(err)
	}
	e := newEvalCtx(f.inputs(), DefaultConfig())
	perHost := e.detail([]*rex.Regex{re}, tagged)
	if perHost[0].Outcome != OutcomeFP {
		t.Errorf("outcome = %v, want FP (annotation contradiction)", perHost[0].Outcome)
	}
}

// TestMissedAnnotationIsFN: the hostname carries "lhr ... uk" and the
// regex extracts only "lhr" — paper §5.3 charges an FN.
func TestMissedAnnotationIsFN(t *testing.T) {
	f := newFixture(t)
	london := f.place("london", "", "gb")
	f.addRouter("N1", london, "ae-1.cr1.lhr1.uk.out.net")
	tagged := tagAll(t, f)
	// Regex that matches but ignores the country label.
	re, err := rex.ParsePattern(geodict.HintIATA,
		`^.+\.([a-z]{3})\d*\.[a-z]{2}\.out\.net$`, []rex.Role{rex.RoleHint})
	if err != nil {
		t.Fatal(err)
	}
	e := newEvalCtx(f.inputs(), DefaultConfig())
	perHost := e.detail([]*rex.Regex{re}, tagged)
	if perHost[0].Outcome != OutcomeFN {
		t.Errorf("outcome = %v, want FN (missed uk annotation)", perHost[0].Outcome)
	}
}

// TestICAOConvention: operators rarely use ICAO codes (paper §2 finds no
// systematic use), but the machinery supports them.
func TestICAOConvention(t *testing.T) {
	f := newFixture(t)
	sites := []struct {
		icao                  string
		city, region, country string
	}{
		{"egll", "london", "", "gb"},
		{"eddf", "frankfurt am main", "he", "de"},
		{"ksjc", "san jose", "ca", "us"},
		{"rjtt", "tokyo", "", "jp"},
	}
	id := 0
	for _, s := range sites {
		loc := f.place(s.city, s.region, s.country)
		for i := 1; i <= 3; i++ {
			id++
			f.addRouter(fmt.Sprintf("N%d", id), loc,
				fmt.Sprintf("ae-%d.core%d.%s.icao.net", i, i, s.icao))
		}
	}
	nc, _, err := RunSuffix(f.inputs(), DefaultConfig(), "icao.net")
	if err != nil || nc == nil {
		t.Fatalf("nc=%v err=%v", nc, err)
	}
	if got := nc.HintTypes(); len(got) != 1 || got[0] != geodict.HintICAO {
		t.Errorf("hint types = %v, want icao", got)
	}
	if !nc.Class.Usable() {
		t.Errorf("class = %s", nc.Class)
	}
}

// TestComplexEncodingLimitation documents the §7 limitation: AT&T-style
// five-character codes with no punctuation around them ("atngat",
// "dlltx" fused into longer tokens) are not learnable, and crucially
// the pipeline must not hallucinate a convention from them.
func TestComplexEncodingLimitation(t *testing.T) {
	f := newFixture(t)
	sites := []struct {
		code                  string
		city, region, country string
	}{
		{"atnga00002cce9", "atlanta", "ga", "us"},
		{"dlltx00001cce9", "dallas", "tx", "us"},
		{"nycny00002cce9", "new york", "ny", "us"},
		{"scaca00002cce9", "sacramento", "ca", "us"},
	}
	id := 0
	for _, s := range sites {
		loc := f.place(s.city, s.region, s.country)
		for i := 1; i <= 2; i++ {
			id++
			f.addRouter(fmt.Sprintf("N%d", id), loc,
				fmt.Sprintf("%s-irb-%d.infra.att-style.net", s.code, i))
		}
	}
	nc, _, err := RunSuffix(f.inputs(), DefaultConfig(), "att-style.net")
	if err != nil {
		t.Fatal(err)
	}
	// Either nothing is learned, or whatever is learned is not usable —
	// the honest outcome for an encoding outside the method's scope.
	if nc != nil && nc.Class.Usable() && nc.Tally.TP > 2 {
		t.Errorf("AT&T-style encoding should not produce a confident convention: %+v", nc.Tally)
	}
}
