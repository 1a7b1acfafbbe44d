package geoloc

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/geo"
	"hoiho/internal/geodict"
)

func sampleGeolocation() *core.Geolocation {
	return &core.Geolocation{
		Hostname: "ash1.he.net",
		Suffix:   "he.net",
		Hint:     "ash",
		Type:     geodict.HintIATA,
		Loc: &geodict.Location{
			City: "ashburn", Region: "va", Country: "us",
			Pos: geo.LatLong{Lat: 39.0437, Long: -77.4875},
		},
	}
}

func TestAnswerStrings(t *testing.T) {
	got := AnswerStrings(sampleGeolocation())
	want := []string{
		"city=ashburn", "region=va", "country=us",
		"lat=39.0437", "long=-77.4875",
		"suffix=he.net", "hint=ash", "type=iata",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AnswerStrings = %v, want %v", got, want)
	}
}

func TestAnswerStringsOmissions(t *testing.T) {
	g := sampleGeolocation()
	g.Loc.Region = ""
	g.Learned = true
	got := AnswerStrings(g)
	for _, s := range got {
		if s == "region=" {
			t.Error("empty region not omitted")
		}
	}
	if got[len(got)-1] != "learned=true" {
		t.Errorf("learned flag missing: %v", got)
	}
	if AnswerStrings(nil) != nil {
		t.Error("nil geolocation should yield no strings")
	}
	if AnswerStrings(&core.Geolocation{}) != nil {
		t.Error("geolocation without location should yield no strings")
	}
}

// TestAppendTXT checks that AppendTXT writes AnswerStrings' fields as
// character-strings behind what b held, refuses a field over 255
// bytes with b unchanged, and appends nothing for no location.
func TestAppendTXT(t *testing.T) {
	prefix := []byte("pre")
	for _, mutate := range []func(*core.Geolocation){
		func(g *core.Geolocation) {},
		func(g *core.Geolocation) { g.Loc.Region, g.Learned = "", true },
		func(g *core.Geolocation) { g.Hint = strings.Repeat("h", 255-len("hint=")) },
	} {
		g := sampleGeolocation()
		mutate(g)
		want := slices.Clone(prefix)
		for _, s := range AnswerStrings(g) {
			want = append(append(want, byte(len(s))), s...)
		}
		if got, err := AppendTXT(slices.Clone(prefix), g); err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendTXT = %q, %v; want %q", got, err, want)
		}
	}
	g := sampleGeolocation()
	g.Hint = strings.Repeat("h", 256-len("hint="))
	b := append(make([]byte, 0, 1024), prefix...)
	if got, err := AppendTXT(b, g); !errors.Is(err, ErrLongField) || !bytes.Equal(got, prefix) {
		t.Errorf("AppendTXT with a 256-byte field = %q, %v; want %q, ErrLongField", got, err, prefix)
	}
	for _, g := range []*core.Geolocation{nil, {}} {
		if got, err := AppendTXT(prefix, g); err != nil || !bytes.Equal(got, prefix) {
			t.Errorf("AppendTXT(%v) = %q, %v; want %q", g, got, err, prefix)
		}
	}
}

func TestPTRTarget(t *testing.T) {
	cases := []struct {
		mutate func(*core.Geolocation)
		want   string
	}{
		{func(g *core.Geolocation) {}, "ashburn.va.us.geo.invalid."},
		{func(g *core.Geolocation) { g.Loc.Region = "" }, "ashburn.us.geo.invalid."},
		{func(g *core.Geolocation) { g.Loc.City = "new york" }, "new-york.va.us.geo.invalid."},
		{func(g *core.Geolocation) { g.Loc.City = "st.louis" }, "st-louis.va.us.geo.invalid."},
	}
	for _, tc := range cases {
		g := sampleGeolocation()
		tc.mutate(g)
		if got := PTRTarget(g); got != tc.want {
			t.Errorf("PTRTarget = %q, want %q", got, tc.want)
		}
	}
	if PTRTarget(nil) != "" {
		t.Error("nil geolocation should yield empty target")
	}
}
