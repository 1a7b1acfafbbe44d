package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestConventionsRoundTrip(t *testing.T) {
	f := newFixture(t)
	buildHENet(f)
	res, err := Run(f.inputs(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteConventions(&buf, res); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "suffix he.net") {
		t.Fatalf("serialized output missing suffix:\n%s", text)
	}
	if !strings.Contains(text, "learned iata ash") {
		t.Errorf("serialized output missing learned hint:\n%s", text)
	}

	got, err := ReadConventions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := res.NCs["he.net"]
	nc := got.NCs["he.net"]
	if nc == nil {
		t.Fatal("he.net lost in round trip")
	}
	if nc.Class != orig.Class {
		t.Errorf("class = %s, want %s", nc.Class, orig.Class)
	}
	if nc.Tally != orig.Tally {
		t.Errorf("tally = %+v, want %+v", nc.Tally, orig.Tally)
	}
	if len(nc.Regexes) != len(orig.Regexes) {
		t.Fatalf("regexes = %d, want %d", len(nc.Regexes), len(orig.Regexes))
	}
	for i := range nc.Regexes {
		if !nc.Regexes[i].Equal(orig.Regexes[i]) {
			t.Errorf("regex %d: %s != %s", i, nc.Regexes[i], orig.Regexes[i])
		}
	}
	if len(nc.Learned) != len(orig.Learned) {
		t.Fatalf("learned = %d, want %d", len(nc.Learned), len(orig.Learned))
	}

	// The restored conventions geolocate identically — the paper's
	// "regexes are available for others to use" claim.
	for _, host := range []string{
		"100ge1-1.core1.ash1.he.net",
		"100ge2-1.core3.sjc1.he.net",
	} {
		g1, ok1 := Geolocate(orig, f.dict, host)
		g2, ok2 := Geolocate(nc, f.dict, host)
		if ok1 != ok2 {
			t.Fatalf("geolocate availability differs for %s", host)
		}
		if ok1 && !g1.Loc.SameCity(g2.Loc) {
			t.Errorf("geolocate(%s): %s != %s", host, g1.Loc, g2.Loc)
		}
	}
}

func TestReadConventionsErrors(t *testing.T) {
	cases := []string{
		"regex iata hint ^(a)$",                            // regex before suffix
		"learned iata x 1 2 a||us tp=1 fp=0 collide=false", // learned before suffix
		"suffix a.net bogus tp=1 fp=0 fn=0 unk=0 hints=1",  // bad class
		"suffix a.net good tp=x fp=0 fn=0 unk=0 hints=1",   // bad count
		"suffix a.net good tp=1 fp=0 fn=0 unk=0 zz=1",      // unknown field
		"suffix a.net good tp=1",                           // short record
		"bogus record",                                     // unknown record
		"suffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1\nregex wat hint ^([a-z]{3})\\.a\\.net$",               // bad hint type
		"suffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1\nregex iata wat ^([a-z]{3})\\.a\\.net$",               // bad role
		"suffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1\nregex iata hint ^(a|b)$",                             // foreign pattern
		"suffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1\nlearned iata x y z a||us tp=1 fp=0 collide=false",    // bad coords
		"suffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1\nlearned iata x NaN 2 a||us tp=1 fp=0 collide=false",  // non-finite latitude
		"suffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1\nlearned iata x 95 2 a||us tp=1 fp=0 collide=false",   // latitude off the globe
		"suffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1\nlearned iata x 1 -181 a||us tp=1 fp=0 collide=false", // longitude off the globe
		"suffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1\nlearned iata x 1 2 nope tp=1 fp=0 collide=false",     // bad triple
		"suffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1\nsuffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1",      // dup suffix
	}
	for _, in := range cases {
		if _, err := ReadConventions(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

func TestReadConventionsMultiWordCity(t *testing.T) {
	in := `suffix a.net good tp=3 fp=0 fn=0 unk=0 hints=3
regex iata hint ^.+\.([a-z]{3})\d*\.a\.net$
learned iata nyk 40.7128 -74.0060 new york|ny|us tp=3 fp=0 collide=false
`
	res, err := ReadConventions(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	lh := res.NCs["a.net"].Learned[0]
	if lh.Loc.City != "new york" || lh.Loc.Region != "ny" {
		t.Errorf("multi-word city lost: %+v", lh.Loc)
	}
	if lh.TP != 3 || lh.Collide {
		t.Errorf("fields lost: %+v", lh)
	}
}
