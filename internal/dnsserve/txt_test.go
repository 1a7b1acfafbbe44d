package dnsserve

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/dnswire"
	"hoiho/internal/geo"
	"hoiho/internal/geodict"
	"hoiho/internal/geoloc"
)

// oracleAnswerStrings is geoloc.AnswerStrings as it was before the TXT
// payload learned to pack itself: one string per key=value field,
// built by concatenation. The served TXT record must stay the TXT of
// these strings, byte for byte.
func oracleAnswerStrings(g *core.Geolocation) []string {
	if g == nil || g.Loc == nil {
		return nil
	}
	out := make([]string, 0, 9)
	out = append(out, "city="+g.Loc.City)
	if g.Loc.Region != "" {
		out = append(out, "region="+g.Loc.Region)
	}
	out = append(out, "country="+g.Loc.Country,
		"lat="+strconv.FormatFloat(g.Loc.Pos.Lat, 'g', -1, 64),
		"long="+strconv.FormatFloat(g.Loc.Pos.Long, 'g', -1, 64),
		"suffix="+g.Suffix,
		"hint="+g.Hint,
		"type="+g.Type.String())
	if g.Learned {
		out = append(out, "learned=true")
	}
	return out
}

// FuzzAppendTXT builds a geolocation from arbitrary fields and packs
// its TXT reply twice: through txtAnswer, the payload handle serves,
// and through dnswire.TXT of oracleAnswerStrings. At a UDP limit and
// at the TCP one, the two must give the same bytes, or both must
// refuse a field over 255 bytes. geoloc.AnswerStrings must list the
// oracle's strings. Every located golden hostname seeds it, as do a
// location without a region, a learned hint, suffixes on either side
// of the 255-byte field limit, and coordinates that are NaN, infinite,
// negative zero or subnormal.
func FuzzAppendTXT(f *testing.F) {
	add := func(g *core.Geolocation) {
		l := g.Loc
		f.Add(l.City, l.Region, l.Country, g.Suffix, g.Hint, int(g.Type), g.Learned, l.Pos.Lat, l.Pos.Long)
	}
	ix, hosts := goldenIndex(f)
	for _, h := range hosts {
		if g, ok := ix.Lookup(h); ok {
			add(g)
		}
	}
	base := func() *core.Geolocation {
		return &core.Geolocation{Suffix: "he.net", Hint: "ash", Type: geodict.HintIATA,
			Loc: &geodict.Location{City: "ashburn", Region: "va", Country: "us",
				Pos: geo.LatLong{Lat: 39.0437, Long: -77.4875}}}
	}
	for _, mutate := range []func(*core.Geolocation){
		func(g *core.Geolocation) { g.Loc.Region = "" },
		func(g *core.Geolocation) { g.Learned = true },
		func(g *core.Geolocation) { g.Suffix = strings.Repeat("s", 248) },
		func(g *core.Geolocation) { g.Suffix = strings.Repeat("s", 249) },
		func(g *core.Geolocation) { g.Loc.Pos = geo.LatLong{Lat: math.NaN(), Long: math.Inf(1)} },
		func(g *core.Geolocation) { g.Loc.Pos = geo.LatLong{Lat: math.Inf(-1), Long: math.Copysign(0, -1)} },
		func(g *core.Geolocation) { g.Loc.Pos = geo.LatLong{Lat: math.SmallestNonzeroFloat64, Long: -0x1p-1050} },
		func(g *core.Geolocation) { g.Type = geodict.HintType(-3) },
	} {
		g := base()
		mutate(g)
		add(g)
	}
	f.Fuzz(func(t *testing.T, city, region, country, suffix, hint string, typ int, learned bool, lat, long float64) {
		g := &core.Geolocation{Suffix: suffix, Hint: hint, Type: geodict.HintType(typ), Learned: learned,
			Loc: &geodict.Location{City: city, Region: region, Country: country,
				Pos: geo.LatLong{Lat: lat, Long: long}}}
		want := oracleAnswerStrings(g)
		if got := geoloc.AnswerStrings(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("AnswerStrings = %q, oracle %q", got, want)
		}
		for _, limit := range []int{minUDPSize, dnswire.MaxMessageLen} {
			got, gerr := txtReply(txtAnswer{g}).AppendTruncated(nil, limit)
			want, werr := txtReply(dnswire.TXT(want)).AppendTruncated(nil, limit)
			if (gerr == nil) != (werr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("limit %d: packed %x (%v), oracle %x (%v)", limit, got, gerr, want, werr)
			}
		}
	})
}

// txtReply is the reply handle builds to a located TXT query for the
// fixture name, with data as its one answer.
func txtReply(data dnswire.RData) *dnswire.Message {
	r := dnswire.Reply(q(locatedName, dnswire.TypeTXT))
	r.Authoritative = true
	r.EDNS = &dnswire.EDNS{UDPSize: defaultUDPSize}
	r.Answers = []dnswire.RR{{Name: locatedName, Class: dnswire.ClassINET, TTL: 300, Data: data}}
	return r
}
