package synth

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"hoiho/internal/asn"
	"hoiho/internal/names"

	"hoiho/internal/abbrev"
	"hoiho/internal/core"
	"hoiho/internal/geo"
	"hoiho/internal/geodict"
	"hoiho/internal/rtt"
)

func smallParams(seed int64) Params {
	p, _ := ITDKPreset("ipv4-aug2020")
	p.Seed = seed
	p.Operators = 8
	p.Tiny = 3
	p.Noise = 4
	p.VPs = 12
	p.SpoofVPs = 1
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	w1, err := Generate(smallParams(7))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(smallParams(7))
	if err != nil {
		t.Fatal(err)
	}
	if w1.Corpus.Len() != w2.Corpus.Len() {
		t.Fatalf("non-deterministic router counts: %d vs %d", w1.Corpus.Len(), w2.Corpus.Len())
	}
	for i, r1 := range w1.Corpus.Routers {
		r2 := w2.Corpus.Routers[i]
		if r1.ID != r2.ID || len(r1.Interfaces) != len(r2.Interfaces) {
			t.Fatalf("router %d differs: %s vs %s", i, r1.ID, r2.ID)
		}
		if r1.Interfaces[0].Hostname != r2.Interfaces[0].Hostname {
			t.Fatalf("hostname differs: %q vs %q", r1.Interfaces[0].Hostname, r2.Interfaces[0].Hostname)
		}
	}
	// Different seeds diverge.
	w3, _ := Generate(smallParams(8))
	same := w1.Corpus.Len() == w3.Corpus.Len()
	if same {
		diff := false
		for i := range w1.Corpus.Routers {
			if w1.Corpus.Routers[i].Interfaces[0].Hostname != w3.Corpus.Routers[i].Interfaces[0].Hostname {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical worlds")
		}
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{"ipv4-aug2020", "ipv4-mar2021", "ipv6-nov2020", "ipv6-mar2021"} {
		p, err := ITDKPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name || p.Operators == 0 || p.VPs == 0 {
			t.Errorf("preset %s malformed: %+v", name, p)
		}
	}
	if _, err := ITDKPreset("bogus"); err == nil {
		t.Error("unknown preset should error")
	}
}

func TestWorldShape(t *testing.T) {
	w, err := Generate(smallParams(42))
	if err != nil {
		t.Fatal(err)
	}
	if w.Corpus.Len() < 50 {
		t.Errorf("corpus too small: %d routers", w.Corpus.Len())
	}
	if len(w.Matrix.VPs()) != 12 {
		t.Errorf("VPs = %d, want 12", len(w.Matrix.VPs()))
	}
	stats := w.Corpus.Stats()
	if stats.WithTruth != stats.Routers {
		t.Errorf("every synthetic router has ground truth: %+v", stats)
	}
	frac := float64(stats.WithHostname) / float64(stats.Routers)
	if frac < 0.3 || frac > 1.0 {
		t.Errorf("hostname fraction = %.2f", frac)
	}
	// Every spec site code is recorded in TruthHints.
	for _, spec := range w.Specs {
		hints := w.TruthHints[spec.Suffix]
		for _, site := range spec.Sites {
			if hints[site.Code] == nil {
				t.Errorf("%s: site code %q missing from TruthHints", spec.Suffix, site.Code)
			}
		}
	}
}

func TestCustomCodesAreLearnableAbbreviations(t *testing.T) {
	w, err := Generate(smallParams(99))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range w.Specs {
		for _, site := range spec.Sites {
			if !site.Custom {
				continue
			}
			switch spec.Style {
			case StyleIATA, StyleIATACC:
				if !abbrev.Matches(site.Code, site.Loc.City) {
					t.Errorf("%s: custom IATA %q is not an abbreviation of %q",
						spec.Suffix, site.Code, site.Loc.City)
				}
			case StyleCLLI, StyleSplitCLLI:
				if len(site.Code) != 6 {
					t.Errorf("custom CLLI %q not 6 letters", site.Code)
				} else if !abbrev.Matches(site.Code[:4], site.Loc.City) {
					t.Errorf("custom CLLI city part %q !~ %q", site.Code[:4], site.Loc.City)
				}
			case StyleLocode:
				if len(site.Code) != 5 {
					t.Errorf("custom LOCODE %q not 5 letters", site.Code)
				} else if !strings.HasPrefix(site.Code, site.Loc.Country) {
					t.Errorf("custom LOCODE %q lacks country prefix %q", site.Code, site.Loc.Country)
				}
			}
		}
	}
}

func TestHonestPingsRespectPhysics(t *testing.T) {
	w, err := Generate(smallParams(5))
	if err != nil {
		t.Fatal(err)
	}
	w.CleanSpoofers()
	checked := 0
	for _, id := range w.Matrix.Routers() {
		loc := w.TruthRouter[id]
		for _, m := range w.Matrix.PingMeasurements(id) {
			if m.Sample.RTTms < geo.MinRTTms(m.VP.Pos, loc.Pos)-1e-9 {
				t.Fatalf("router %s: RTT %.2f from %s below physical floor %.2f",
					id, m.Sample.RTTms, m.VP.Name, geo.MinRTTms(m.VP.Pos, loc.Pos))
			}
			checked++
		}
	}
	if checked < 100 {
		t.Errorf("too few samples checked: %d", checked)
	}
}

func TestSpooferDetection(t *testing.T) {
	p := smallParams(11)
	p.SpoofVPs = 2
	w, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	spoofers := w.CleanSpoofers()
	if len(spoofers) == 0 {
		t.Error("spoofing VPs should be detected")
	}
	// The flagged VPs must be the configured spoofers.
	for _, name := range spoofers {
		if vp := w.Matrix.VP(name); vp == nil || !vp.SpoofTCP {
			t.Errorf("flagged VP %s is not a spoofer", name)
		}
	}
}

func TestPipelineOnSyntheticWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	w, err := Generate(smallParams(2021))
	if err != nil {
		t.Fatal(err)
	}
	w.CleanSpoofers()
	res, err := core.Run(w.Inputs(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	usable := res.UsableNCs()
	substantial := 0
	for _, spec := range w.Specs {
		if len(spec.Sites) >= 3 {
			substantial++
		}
	}
	if len(usable) < substantial/2 {
		t.Errorf("usable NCs = %d of %d substantial operators", len(usable), substantial)
	}
	// Learned hints should usually match the generator's intent.
	correct, wrong := 0, 0
	for _, nc := range res.NCs {
		truth := w.TruthHints[nc.Suffix]
		for _, lh := range nc.Learned {
			want := truth[lh.Hint]
			if want == nil {
				continue
			}
			if geo.DistanceKm(lh.Loc.Pos, want.Pos) <= 40 {
				correct++
			} else {
				wrong++
			}
		}
	}
	if correct+wrong > 0 && float64(correct)/float64(correct+wrong) < 0.6 {
		t.Errorf("learned hints mostly wrong: %d correct, %d wrong", correct, wrong)
	}
	// Noise suffixes must not yield usable NCs.
	for suffix, nc := range res.NCs {
		if strings.HasPrefix(suffix, "noise") && nc.Class.Usable() {
			t.Errorf("noise suffix %s classified %s", suffix, nc.Class)
		}
	}
}

func TestStyleStrings(t *testing.T) {
	for s := StyleIATA; s < numStyles; s++ {
		if s.String() == "" || strings.HasPrefix(s.String(), "style(") {
			t.Errorf("style %d has no name", s)
		}
		if s.HintType() == geodict.HintNone {
			t.Errorf("style %s has no hint type", s)
		}
	}
}

func TestWorldFeedsNamesAndASNLearning(t *testing.T) {
	w, err := Generate(smallParams(77))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.ASNs) == 0 {
		t.Fatal("generator produced no interconnect ASN ground truth")
	}
	// The ASN capability learns from the interconnect hostnames.
	asnConvs := asn.Learn(w.Corpus, w.PSL, asn.AddrMap(w.ASNs), asn.DefaultConfig())
	if len(asnConvs) == 0 {
		t.Error("no ASN conventions learned from the synthetic world")
	}
	for _, c := range asnConvs {
		if c.PPV() < 0.9 {
			t.Errorf("%s: ASN PPV %.2f below threshold", c.Suffix, c.PPV())
		}
	}
	// The router-name capability learns from multi-hostname routers.
	nameConvs := names.Learn(w.Corpus, w.PSL, 3)
	if len(nameConvs) == 0 {
		t.Error("no router-name conventions learned from the synthetic world")
	}
}

// TestCleanedMatrixRoundTrip: after CleanSpoofers empties the rows of
// routers whose only samples were spoofed, Routers lists only routers
// with a ping sample, so a write/read round trip keeps the list.
func TestCleanedMatrixRoundTrip(t *testing.T) {
	p, err := ITDKPreset("ipv4-aug2020")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if spoofers := w.CleanSpoofers(); len(spoofers) == 0 {
		t.Fatal("the preset has no spoofing VP to clean")
	}
	routers := w.Matrix.Routers()
	for _, id := range routers {
		if !w.Matrix.HasPing(id) {
			t.Fatalf("Routers lists %s, which has no ping sample", id)
		}
	}
	var buf bytes.Buffer
	if err := rtt.WriteMatrix(&buf, w.Matrix); err != nil {
		t.Fatal(err)
	}
	m, err := rtt.ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Routers(); !slices.Equal(got, routers) {
		t.Errorf("round trip: %d routers, want %d", len(got), len(routers))
	}
}
