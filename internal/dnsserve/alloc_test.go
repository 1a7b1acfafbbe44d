package dnsserve

import (
	"fmt"
	"strings"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/dnswire"
	"hoiho/internal/geodict"
	"hoiho/internal/geoloc"
	"hoiho/internal/psl"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// puts at random and allocation counts stop being exact.
var raceEnabled bool

// TestHandleAllocs pins the allocations of the serving path on cached
// lookups. A query without an OPT record costs Unpack's three
// (message, question list, name) and the reply's question list and
// buffer; a located reply adds its answer list. The TXT payload packs
// itself into the buffer and the reply's OPT record is the server's
// own, so an EDNS query adds only Unpack's copy of its OPT record.
func TestHandleAllocs(t *testing.T) {
	s := testServer(t)
	for _, tc := range []struct {
		name string
		edns bool
		max  float64
	}{
		{locatedName, false, 6},
		{unlocatedName, false, 5},
		{locatedName, true, 7},
		{unlocatedName, true, 6},
	} {
		m := q(tc.name, dnswire.TypeTXT)
		if !tc.edns {
			m.EDNS = nil
		}
		pkt, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		s.HandlePacket(pkt, testSrc, false) // fill the result cache
		if a := testing.AllocsPerRun(100, func() { s.HandlePacket(pkt, testSrc, false) }); a > tc.max {
			t.Errorf("HandlePacket(%s, EDNS %v): %v allocations, want at most %v", tc.name, tc.edns, a, tc.max)
		}
	}
}

// TestHandleAllocsUncached pins a located reply whose lookup misses a
// full result cache, the shape of most dns-uniform queries: a cached
// reply's six allocations and the Geolocation the lookup builds. The
// insert that evicts another entry allocates nothing.
func TestHandleAllocsUncached(t *testing.T) {
	res, err := core.ReadConventions(strings.NewReader(testConventions))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := geoloc.New(res, geoloc.Options{Dict: geodict.MustDefault(), PSL: psl.MustDefault(), CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := New(ix, Config{})
	pkts := make([][]byte, 256)
	for i := range pkts {
		m := q(fmt.Sprintf("xe-%d.core9.ash1.he.net.", i), dnswire.TypeTXT)
		m.EDNS = nil
		if pkts[i], err = m.Pack(); err != nil {
			t.Fatal(err)
		}
		s.HandlePacket(pkts[i], testSrc, false) // fill the cache
	}
	misses := ix.Stats().CacheMisses
	i := 0
	a := testing.AllocsPerRun(100, func() {
		s.HandlePacket(pkts[i%len(pkts)], testSrc, false)
		i++
	})
	// Under -race a match may allocate the result that rex's sync.Pool
	// dropped, so the bound is checked only without it.
	if a > 7 && !raceEnabled {
		t.Errorf("HandlePacket of an uncached located name: %v allocations, want at most 7", a)
	}
	if n := ix.Stats().CacheMisses - misses; n != uint64(i) {
		t.Errorf("%d of %d lookups missed the cache, want all", n, i)
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
