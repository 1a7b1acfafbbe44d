package geoloc

import (
	"bytes"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/obs"
)

// TestTracedIndex checks the index's one span: a geoloc-compile span at
// New with the convention count and the build-time matcher count.
// Lookups, single or batched, open none.
func TestTracedIndex(t *testing.T) {
	tr := obs.New(obs.Options{RetainSpans: true})
	ix := newTestIndex(t, Options{Tracer: tr})
	ix.LookupBatch(probeHosts)
	ix.Lookup(probeHosts[0])

	recs := tr.Export()
	if len(recs) != 1 || recs[0].Name != "geoloc-compile" {
		t.Fatalf("exported spans = %+v, want one geoloc-compile span", recs)
	}
	if recs[0].Counters["conventions"] != int64(ix.Len()) {
		t.Errorf("compile span conventions = %d, want %d", recs[0].Counters["conventions"], ix.Len())
	}
	// The live fixture Result's regex caches are already warm from the
	// pipeline run, so this compile span legitimately counts zero new
	// compilations. A Result read back from the published format has
	// cold caches: its build must count every regex.
	res, dict, list := learnFixture(t)
	var buf bytes.Buffer
	if err := core.WriteConventions(&buf, res); err != nil {
		t.Fatal(err)
	}
	cold, err := core.ReadConventions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	coldTr := obs.New(obs.Options{RetainSpans: true})
	if _, err := New(cold, Options{Dict: dict, PSL: list, Tracer: coldTr}); err != nil {
		t.Fatal(err)
	}
	coldRecs := coldTr.Export()
	if len(coldRecs) != 1 || coldRecs[0].Counters["matchers_compiled"] == 0 {
		t.Errorf("cold-cache build spans = %+v, want one span counting matcher builds", coldRecs)
	}
}
