package dnsserve

import (
	"testing"

	"hoiho/internal/dnswire"
	"hoiho/internal/geoloc"
)

// TestHandleAllocs pins the allocations of the serving path on cached
// lookups, for a query without an OPT record: Unpack's three (message,
// question list, name), the reply's question list and its buffer, and
// on a located reply the answer strings and the record.
func TestHandleAllocs(t *testing.T) {
	s := testServer(t)
	for _, tc := range []struct {
		name string
		max  float64
	}{
		{locatedName, 18},
		{unlocatedName, 5},
	} {
		m := q(tc.name, dnswire.TypeTXT)
		m.EDNS = nil
		pkt, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		s.HandlePacket(pkt, testSrc, false) // fill the result cache
		if a := testing.AllocsPerRun(100, func() { s.HandlePacket(pkt, testSrc, false) }); a > tc.max {
			t.Errorf("HandlePacket(%s): %v allocations, want at most %v", tc.name, a, tc.max)
		}
	}
}

// TestAppendReplyAllocs pins the pack of the fixture's located TXT
// reply into a buffer with room at zero allocations.
func TestAppendReplyAllocs(t *testing.T) {
	g, ok := testIndex(t).Lookup(locatedName)
	if !ok {
		t.Fatal("fixture hostname does not locate")
	}
	r := dnswire.Reply(q(locatedName, dnswire.TypeTXT))
	r.Authoritative = true
	r.Answers = []dnswire.RR{{Name: locatedName, Class: dnswire.ClassINET, TTL: 300,
		Data: dnswire.TXT(geoloc.AnswerStrings(g))}}
	buf := make([]byte, 0, 512)
	var err error
	if a := testing.AllocsPerRun(100, func() { buf, err = r.AppendTruncated(buf[:0], 1232) }); a != 0 || err != nil {
		t.Errorf("AppendTruncated: %v allocations (err %v), want 0", a, err)
	}
}
