package undns

import (
	"testing"

	"hoiho/internal/geodict"
)

// sampleRuleSet builds curated rules in the style of the Rocketfuel
// undns database, with partial code tables, for two suffixes.
func sampleRuleSet(t *testing.T) *RuleSet {
	t.Helper()
	d := geodict.MustDefault()
	place := func(city, region, country string) *geodict.Location {
		for _, loc := range d.Locations(geodict.HintPlace, city) {
			if loc.Region == region && loc.Country == country {
				return loc
			}
		}
		t.Fatalf("no place %s|%s|%s", city, region, country)
		return nil
	}
	rs := NewRuleSet()
	for _, r := range []struct {
		suffix, pattern string
		codes           map[string]*geodict.Location
	}{
		{"ntt.net", `^.+\.([a-z]{6})\d+\.[a-z]{2}\.[a-z]{2}\.gin\.ntt\.net$`, map[string]*geodict.Location{
			"snjsca": place("san jose", "ca", "us"),
			"sttlwa": place("seattle", "wa", "us"),
			"kslrml": place("kuala lumpur", "", "my"),
		}},
		{"he.net", `^.+\.core\d+\.([a-z]{3})\d+\.he\.net$`, map[string]*geodict.Location{
			"sjc": place("san jose", "ca", "us"),
			"fra": place("frankfurt am main", "he", "de"),
		}},
	} {
		if err := rs.AddRule(r.suffix, r.pattern, r.codes); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

func TestParseAndGeolocate(t *testing.T) {
	rs := sampleRuleSet(t)
	if len(rs.Rules) != 2 {
		t.Errorf("suffixes = %d", len(rs.Rules))
	}
	loc, ok := rs.Geolocate("ae-2.r20.snjsca04.us.bb.gin.ntt.net", "ntt.net")
	if !ok || loc.City != "san jose" {
		t.Errorf("geolocate = %v, %v", loc, ok)
	}
	// Codes outside the curated table yield nothing — undns coverage is
	// bounded by the human-maintained map.
	if _, ok := rs.Geolocate("ae-2.r20.nycmny01.us.bb.gin.ntt.net", "ntt.net"); ok {
		t.Error("unmapped code should yield nothing")
	}
	// The paper's single stale entry: kslrml was hand-mapped to the
	// wrong city (Kuala Lumpur instead of Kuala Selangor).
	loc, ok = rs.Geolocate("ae-1.r01.kslrml02.my.bb.gin.ntt.net", "ntt.net")
	if !ok || loc.City != "kuala lumpur" {
		t.Errorf("stale entry should answer kuala lumpur, got %v %v", loc, ok)
	}
	if _, ok := rs.Geolocate("x.unknown.org", "unknown.org"); ok {
		t.Error("unknown suffix should fail")
	}
}

// TestGeolocateTable sweeps Geolocate over the hit / miss / malformed
// input space with the sample ruleset.
func TestGeolocateTable(t *testing.T) {
	rs := sampleRuleSet(t)
	cases := []struct {
		name, host, suffix string
		wantCity           string
		wantOK             bool
	}{
		{"hit ntt clli", "ae-2.r20.sttlwa01.us.bb.gin.ntt.net", "ntt.net", "seattle", true},
		{"hit he iata", "10ge1-2.core3.fra2.he.net", "he.net", "frankfurt am main", true},
		{"hit uppercase host", "AE-2.R20.SNJSCA04.US.BB.GIN.NTT.NET", "ntt.net", "san jose", true},
		{"miss unmapped code", "ae-2.r20.nycmny01.us.bb.gin.ntt.net", "ntt.net", "", false},
		{"miss unknown suffix", "cr1.fra1.other.org", "other.org", "", false},
		{"malformed shape", "not-a-router-hostname", "ntt.net", "", false},
		{"malformed empty host", "", "he.net", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loc, ok := rs.Geolocate(tc.host, tc.suffix)
			if ok != tc.wantOK {
				t.Fatalf("Geolocate(%q) ok = %v, want %v", tc.host, ok, tc.wantOK)
			}
			if ok && loc.City != tc.wantCity {
				t.Errorf("Geolocate(%q) = %s, want %s", tc.host, loc.City, tc.wantCity)
			}
		})
	}
}

func TestAddRule(t *testing.T) {
	d := geodict.MustDefault()
	rs := NewRuleSet()
	loc := d.Place("london")[0]
	if err := rs.AddRule("x.net", `^([a-z]{3})\.x\.net$`,
		map[string]*geodict.Location{"lon": loc}); err != nil {
		t.Fatal(err)
	}
	got, ok := rs.Geolocate("lon.x.net", "x.net")
	if !ok || got.City != "london" {
		t.Errorf("geolocate = %v %v", got, ok)
	}
	if err := rs.AddRule("x.net", `^no-capture$`, nil); err == nil {
		t.Error("zero captures should be rejected")
	}
	if err := rs.AddRule("x.net", `^([a)$`, nil); err == nil {
		t.Error("bad regex should be rejected")
	}
}
