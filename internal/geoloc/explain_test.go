package geoloc

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestExplainMirrorsLookup: for every probe hostname and every hostname
// of the golden corpus, the explanation's verdict and answer agree
// exactly with Lookup — Explain is the same decision procedure with the
// trace recorded, never a second opinion.
func TestExplainMirrorsLookup(t *testing.T) {
	_, golden := goldenIndex(t)
	for _, tc := range []struct {
		ix    *Index
		hosts []string
	}{
		{newTestIndex(t, Options{}), probeHosts},
		{golden, goldenHostnames(t)},
	} {
		for _, host := range tc.hosts {
			g, ok := tc.ix.Lookup(host)
			ex := tc.ix.Explain(host)
			if ex.Located != ok {
				t.Errorf("%s: Explain located=%v, Lookup ok=%v", host, ex.Located, ok)
				continue
			}
			if !ok {
				continue
			}
			if ex.Location.City != g.Loc.City || ex.Location.Region != g.Loc.Region ||
				ex.Location.Country != g.Loc.Country {
				t.Errorf("%s: Explain %+v != Lookup %+v", host, ex.Location, g.Loc)
			}
			if ex.Hint != g.Hint || ex.HintType != g.Type.String() || ex.Learned != g.Learned ||
				ex.Suffix != g.Suffix {
				t.Errorf("%s: Explain answer fields diverge from Lookup", host)
			}
		}
	}
}

// TestExplainStages checks the trace content for each resolution path.
func TestExplainStages(t *testing.T) {
	ix := newTestIndex(t, Options{})

	// Learned overlay, with normalization visible.
	ex := ix.Explain("GCR-Company.VE42.Core9.ASH1.HE.NET.")
	if ex.Normalized != "gcr-company.ve42.core9.ash1.he.net" {
		t.Errorf("normalized = %q", ex.Normalized)
	}
	if !ex.Indexed || ex.Convention == nil || ex.Convention.Learned == 0 {
		t.Fatalf("he.net convention summary missing: %+v", ex.Convention)
	}
	last := ex.Steps[len(ex.Steps)-1]
	if !last.Matched || last.Resolution != ResolutionLearned || last.Hint != "ash" {
		t.Errorf("learned step = %+v", last)
	}
	if last.LearnedTP == 0 {
		t.Error("learned step carries no congruence evidence")
	}
	if !ex.Learned || ex.Location.City != "ashburn" {
		t.Errorf("verdict = learned=%v loc=%+v", ex.Learned, ex.Location)
	}

	// Dictionary resolution.
	ex = ix.Explain("te0-0-0.core1.sjc1.he.net")
	last = ex.Steps[len(ex.Steps)-1]
	if last.Resolution != ResolutionDictionary || last.Candidates == 0 {
		t.Errorf("dictionary step = %+v", last)
	}
	if ex.Learned || ex.Location.City != "san jose" {
		t.Errorf("verdict = %+v", ex.Location)
	}

	// Matched but unresolved: terminal miss, not fall-through.
	ex = ix.Explain("100ge1-1.core1.xxq1.he.net")
	if ex.Located {
		t.Fatal("unresolvable extraction located")
	}
	last = ex.Steps[len(ex.Steps)-1]
	if !last.Matched || last.Resolution != ResolutionUnresolved {
		t.Errorf("unresolved step = %+v", last)
	}

	// No regex matched: every step present, none matched.
	ex = ix.Explain("totally-unconventional.he.net")
	if ex.Located || len(ex.Steps) != ex.Convention.Regexes {
		t.Errorf("miss trace has %d steps for %d regexes, located=%v",
			len(ex.Steps), ex.Convention.Regexes, ex.Located)
	}
	for _, st := range ex.Steps {
		if st.Matched {
			t.Errorf("step claims match on unmatched hostname: %+v", st)
		}
	}

	// Unknown suffix: trace ends at dispatch.
	ex = ix.Explain("core1.sjc1.example-no-convention.com")
	if ex.Indexed || ex.Convention != nil || len(ex.Steps) != 0 || ex.Located {
		t.Errorf("unknown-suffix trace = %+v", ex)
	}
}

// TestExplainBypassesServingState: explanations leave the cache and the
// Stats counters untouched, and repeated explanations are identical.
func TestExplainBypassesServingState(t *testing.T) {
	ix := newTestIndex(t, Options{})
	before := ix.Stats()
	a := ix.Explain("100ge1-1.core1.sjc1.he.net")
	b := ix.Explain("100ge1-1.core1.sjc1.he.net")
	after := ix.Stats()
	if before.Lookups != after.Lookups || before.Matched != after.Matched ||
		before.CacheHits != after.CacheHits || before.CacheMisses != after.CacheMisses {
		t.Errorf("Explain moved counters: %+v -> %+v", before, after)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Errorf("explanations differ across runs:\n%s\n%s", aj, bj)
	}
	if a.Text() != b.Text() {
		t.Error("text renderings differ across runs")
	}
}

// TestExplainText spot-checks the text rendering's landmark lines.
func TestExplainText(t *testing.T) {
	ix := newTestIndex(t, Options{})
	text := ix.Explain("gcr-company.ve42.core9.ash1.he.net").Text()
	for _, want := range []string{
		"hostname:   gcr-company.ve42.core9.ash1.he.net",
		"suffix:     he.net",
		"learned overlay: Ashburn, VA, US",
		"verdict:    ashburn, va, us",
		"via learned-overlay",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text missing %q:\n%s", want, text)
		}
	}
	text = ix.Explain("nope.example-no-convention.com").Text()
	if !strings.Contains(text, "no convention indexed") {
		t.Errorf("unknown-suffix text:\n%s", text)
	}
}
