package hloc

import (
	"reflect"
	"slices"
	"testing"

	"hoiho/internal/geo"
	"hoiho/internal/geodict"
	"hoiho/internal/rtt"
)

func testMatrix(d *geodict.Dictionary) *rtt.Matrix {
	mk := func(name, city string) *rtt.VP {
		return &rtt.VP{Name: name, City: city, Pos: d.Place(city)[0].Pos}
	}
	return rtt.NewMatrix([]*rtt.VP{
		mk("fra-de", "frankfurt am main"),
		mk("lon-gb", "london"),
		mk("nyc-us", "new york"),
		mk("dal-us", "dallas"),
		mk("lim-pe", "lima"),
	})
}

func TestTokens(t *testing.T) {
	got := tokens("de-cix1.rt.act.fkt.de.retn.net", "retn.net")
	want := []string{"de", "cix", "rt", "act", "fkt", "de"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tokens = %v, want %v", got, want)
	}
	if tokens("a.other.org", "retn.net") != nil {
		t.Error("suffix mismatch should be nil")
	}
}

func TestBlocklist(t *testing.T) {
	d := geodict.MustDefault()
	m := testMatrix(d)
	h := New(DefaultConfig(), d, m)
	// "eth" and "gig" are IATA codes but blocklisted.
	cands := h.candidates("eth0.gig1.core.example.net", "example.net")
	if len(cands) != 0 {
		t.Errorf("blocklisted tokens produced candidates: %+v", cands)
	}
}

func TestGeolocateConfirms(t *testing.T) {
	d := geodict.MustDefault()
	m := testMatrix(d)
	fra := d.Place("frankfurt am main")[0]
	// Honest samples for a Frankfurt router.
	for _, vp := range m.VPs() {
		_ = m.SetPing("R1", vp.Name, rtt.Sample{
			RTTms: geo.MinRTTms(vp.Pos, fra.Pos)*1.3 + 1})
	}
	h := New(DefaultConfig(), d, m)
	loc, ok := h.Geolocate("R1", "cr1.fra1.example.net", "example.net")
	if !ok || loc.City != "frankfurt am main" {
		t.Errorf("geolocate = %v, %v", loc, ok)
	}
}

func TestConfirmationBias(t *testing.T) {
	// The paper's retn.net example: a Frankfurt router whose hostname
	// contains "act" (Waco, TX) and "cix" (Chiclayo, PE). HLOC consults
	// only VPs near Waco/Chiclayo; the ~110ms RTT from Dallas/Lima to
	// Frankfurt easily covers Waco/Chiclayo, so HLOC wrongly confirms
	// them.
	d := geodict.MustDefault()
	m := testMatrix(d)
	fra := d.Place("frankfurt am main")[0]
	for _, vp := range m.VPs() {
		_ = m.SetPing("R1", vp.Name, rtt.Sample{
			RTTms: geo.MinRTTms(vp.Pos, fra.Pos)*1.3 + 1})
	}
	h := New(DefaultConfig(), d, m)
	// No "fkt" in the dictionary, so the true hint is invisible to HLOC;
	// the false candidates get confirmed.
	loc, ok := h.Geolocate("R1", "de-cix1.rt.act.fkt.de.retn.net", "retn.net")
	if !ok {
		t.Fatal("HLOC should (wrongly) confirm a candidate")
	}
	if loc.City != "waco" && loc.City != "chiclayo" {
		t.Errorf("expected the confirmation-bias false positive, got %s", loc.City)
	}
}

func TestNoSamplesNoAnswer(t *testing.T) {
	// The nysernet failure mode: the nearby VPs have no samples.
	d := geodict.MustDefault()
	m := testMatrix(d)
	h := New(DefaultConfig(), d, m)
	if _, ok := h.Geolocate("R9", "cr1.fra1.example.net", "example.net"); ok {
		t.Error("no samples should mean no answer")
	}
}

func TestNoCustomHints(t *testing.T) {
	// "ash" maps to Nashua in the dictionary; for an Ashburn router the
	// one-sided test from the VP nearest Nashua (nyc-us, ~300km away)
	// still "confirms" Nashua because the measured 6ms RTT disc covers
	// it — HLOC cannot learn the operator meant Ashburn.
	d := geodict.MustDefault()
	m := testMatrix(d)
	ashburn := d.Place("ashburn")[0]
	for _, vp := range m.VPs() {
		_ = m.SetPing("R1", vp.Name, rtt.Sample{
			RTTms: geo.MinRTTms(vp.Pos, ashburn.Pos)*1.3 + 1})
	}
	h := New(DefaultConfig(), d, m)
	loc, ok := h.Geolocate("R1", "core1.ash1.he.net", "he.net")
	if !ok {
		t.Fatal("expected an answer")
	}
	if loc.City == "ashburn" {
		t.Error("HLOC has no custom-hint learning; it cannot answer ashburn")
	}
}

// TestGeolocateTable sweeps Geolocate over the hit / miss / malformed
// input space against one honest Frankfurt router.
func TestGeolocateTable(t *testing.T) {
	d := geodict.MustDefault()
	m := testMatrix(d)
	fra := d.Place("frankfurt am main")[0]
	for _, vp := range m.VPs() {
		_ = m.SetPing("R1", vp.Name, rtt.Sample{
			RTTms: geo.MinRTTms(vp.Pos, fra.Pos)*1.3 + 1})
	}
	h := New(DefaultConfig(), d, m)
	cases := []struct {
		name, router, host, suffix string
		wantCity                   string
		wantOK                     bool
	}{
		{"hit iata", "R1", "cr1.fra1.example.net", "example.net", "frankfurt am main", true},
		{"miss no dictionary token", "R1", "xx0.yy1.example.net", "example.net", "", false},
		{"miss blocklisted only", "R1", "eth0.core.example.net", "example.net", "", false},
		{"miss router without samples", "R9", "cr1.fra1.example.net", "example.net", "", false},
		{"malformed wrong suffix", "R1", "cr1.fra1.other.org", "example.net", "", false},
		{"malformed empty host", "R1", "", "example.net", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loc, ok := h.Geolocate(tc.router, tc.host, tc.suffix)
			if ok != tc.wantOK {
				t.Fatalf("Geolocate(%q) ok = %v, want %v", tc.host, ok, tc.wantOK)
			}
			if ok && loc.City != tc.wantCity {
				t.Errorf("Geolocate(%q) = %s, want %s", tc.host, loc.City, tc.wantCity)
			}
		})
	}
}

func TestCandidateTypes(t *testing.T) {
	d := geodict.MustDefault()
	m := testMatrix(d)
	h := New(DefaultConfig(), d, m)
	got := h.candidates("a1.usnyc.nycmny.dallas.example.net", "example.net")
	// Each token is read in the dictionary its length names: usnyc as
	// a LOCODE, nycmny as a CLLI code, dallas as a place.
	var want []*geodict.Location
	for _, q := range []struct {
		typ geodict.HintType
		tok string
	}{{geodict.HintLocode, "usnyc"}, {geodict.HintCLLI, "nycmny"}, {geodict.HintPlace, "dallas"}} {
		locs := d.Locations(q.typ, q.tok)
		if len(locs) == 0 {
			t.Fatalf("dictionary has no %v %q", q.typ, q.tok)
		}
		want = append(want, locs...)
	}
	if !slices.Equal(got, want) {
		t.Errorf("candidates = %v, want %v", got, want)
	}
}
