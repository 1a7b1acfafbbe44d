package dnsserve

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"hoiho/internal/dnswire"
)

// fakeClock drives a limiter deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testLimiter(rate, burst float64) (*limiter, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	l := newLimiter(rate, burst)
	l.now = clk.now
	return l, clk
}

func TestLimiterBurstAndRefill(t *testing.T) {
	l, clk := testLimiter(2, 3) // 2 tokens/sec, burst 3
	src := netip.MustParseAddr("192.0.2.7")
	for i := 0; i < 3; i++ {
		if !l.allow(src) {
			t.Fatalf("query %d inside burst refused", i)
		}
	}
	if l.allow(src) {
		t.Fatal("query beyond burst allowed")
	}
	clk.advance(500 * time.Millisecond) // refills one token
	if !l.allow(src) {
		t.Fatal("refilled token refused")
	}
	if l.allow(src) {
		t.Fatal("second query after single refill allowed")
	}
	clk.advance(time.Hour) // refill caps at burst, not rate*3600
	for i := 0; i < 3; i++ {
		if !l.allow(src) {
			t.Fatalf("query %d after long idle refused", i)
		}
	}
	if l.allow(src) {
		t.Fatal("burst cap not enforced after long idle")
	}
}

func TestLimiterPerSourceIsolation(t *testing.T) {
	l, _ := testLimiter(1, 1)
	a := netip.MustParseAddr("192.0.2.1")
	b := netip.MustParseAddr("192.0.2.2")
	if !l.allow(a) {
		t.Fatal("first query from a refused")
	}
	if l.allow(a) {
		t.Fatal("second query from a allowed")
	}
	if !l.allow(b) {
		t.Fatal("exhausting a's bucket starved b")
	}
}

func TestLimiterFailOpen(t *testing.T) {
	var nilLimiter *limiter
	if !nilLimiter.allow(netip.MustParseAddr("192.0.2.1")) {
		t.Error("nil limiter must allow")
	}
	if newLimiter(0, 10) != nil {
		t.Error("rate 0 should disable the limiter")
	}
	l, _ := testLimiter(1, 1)
	if !l.allow(netip.Addr{}) {
		t.Error("invalid source address must be allowed")
	}
}

func TestLimiterEviction(t *testing.T) {
	l, clk := testLimiter(1000, 1)
	// Fill the map to the cap with distinct sources.
	for i := 0; i < limiterCap; i++ {
		l.allow(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}))
	}
	if got := len(l.buckets); got != limiterCap {
		t.Fatalf("buckets = %d, want %d", got, limiterCap)
	}
	// After every bucket has refilled, one more source sweeps them out.
	clk.advance(time.Second)
	if !l.allow(netip.MustParseAddr("192.0.2.99")) {
		t.Fatal("fresh source refused at cap")
	}
	if got := len(l.buckets); got >= limiterCap {
		t.Fatalf("sweep kept %d buckets", got)
	}
}

// TestRefusedAccounting runs the limiter through the full handler:
// queries over budget get REFUSED and the refused counter moves.
func TestRefusedAccounting(t *testing.T) {
	s := New(testIndex(t), Config{Rate: 1, Burst: 2})
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s.limiter.now = clk.now
	pkt, err := q(locatedName, dnswire.TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}
	var rcodes []dnswire.RCode
	for i := 0; i < 4; i++ {
		resp := s.HandlePacket(pkt, testSrc, false)
		r, err := dnswire.Unpack(resp)
		if err != nil {
			t.Fatal(err)
		}
		rcodes = append(rcodes, r.RCode)
	}
	want := []dnswire.RCode{dnswire.RCodeNoError, dnswire.RCodeNoError,
		dnswire.RCodeRefused, dnswire.RCodeRefused}
	if fmt.Sprint(rcodes) != fmt.Sprint(want) {
		t.Errorf("rcodes = %v, want %v", rcodes, want)
	}
	stats := s.Stats()
	if stats["refused"] != 2 || stats["queries"] != 4 {
		t.Errorf("Stats = %v", stats)
	}
	// A REFUSED reply is header-only and echoes the query ID.
	resp := s.HandlePacket(pkt, testSrc, false)
	if len(resp) != 12 || resp[0] != pkt[0] || resp[1] != pkt[1] {
		t.Errorf("REFUSED reply = %x", resp)
	}
}
