package dnsserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"hoiho/internal/dnswire"
	"hoiho/internal/qlog"
)

// TestEDNSSizeHistogram pins the negotiated-limit accounting: each UDP
// query lands in the band of its negotiated response limit, TCP
// queries are never observed, and the byte sum tracks the limits.
func TestEDNSSizeHistogram(t *testing.T) {
	s := New(testIndex(t), Config{UDPSize: 8192})
	send := func(udpSize uint16, tcp bool) {
		m := q(locatedName, dnswire.TypeTXT)
		if udpSize == 0 {
			m.EDNS = nil
		} else {
			m.EDNS.UDPSize = udpSize
		}
		pkt, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if s.HandlePacket(pkt, testSrc, tcp) == nil {
			t.Fatal("no response")
		}
	}
	send(512, false)  // min(512, 8192) = 512 → band 0
	send(1232, false) // 1232 → band 1
	send(4096, false) // 4096 → band 2
	send(9000, false) // min(9000, 8192) = 8192 → +Inf band
	send(0, false)    // no EDNS: the RFC 1035 512 → band 0
	send(512, true)   // TCP: no negotiated limit, not observed

	bounds, counts, sum := s.EDNSSizes()
	if want := []float64{512, 1232, 4096}; fmt.Sprint(bounds) != fmt.Sprint(want) {
		t.Errorf("bounds = %v, want %v", bounds, want)
	}
	if want := []int64{2, 1, 1, 1}; fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	if want := int64(512 + 1232 + 4096 + 8192 + 512); sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

// TestLimiterEvictions: capacity sweeps count the buckets they drop,
// and a disabled limiter reads zero through the Server accessor.
func TestLimiterEvictions(t *testing.T) {
	l, clk := testLimiter(1, 1)
	for i := 0; i < limiterCap; i++ {
		l.allow(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}))
	}
	if got := l.evictions(); got != 0 {
		t.Fatalf("evictions before sweep = %d, want 0", got)
	}
	clk.advance(time.Hour) // every bucket refills → all sweepable
	l.allow(netip.MustParseAddr("192.0.2.99"))
	if got := l.evictions(); got != limiterCap {
		t.Errorf("evictions = %d, want %d", got, limiterCap)
	}
	if got := testServer(t).LimiterEvictions(); got != 0 {
		t.Errorf("disabled limiter evictions = %d, want 0", got)
	}
}

// TestQueryLogWiring runs the handler with a buffered query log on a
// frozen clock and pins the records: one per handled packet, outcome
// matching the counter taxonomy, hostname and qtype on parsed queries.
func TestQueryLogWiring(t *testing.T) {
	var buf bytes.Buffer
	ql, err := qlog.New(qlog.Options{W: &buf, Clock: func() time.Time { return time.UnixMicro(7) }})
	if err != nil {
		t.Fatal(err)
	}
	s := New(testIndex(t), Config{QueryLog: ql})

	pack := func(m *dnswire.Message) []byte {
		t.Helper()
		pkt, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	s.HandlePacket(pack(q(locatedName, dnswire.TypeTXT)), testSrc, false)
	s.HandlePacket(pack(q(unlocatedName, dnswire.TypePTR)), testSrc, false)
	noise := q(locatedName, dnswire.TypeTXT)
	noise.Response = true
	s.HandlePacket(pack(noise), testSrc, false) // dropped, no reply — still logged

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("qlog has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	type rec struct {
		TS         int64  `json:"ts_us"`
		ID         string `json:"id"`
		Front      string `json:"front"`
		Op         string `json:"op"`
		Hostname   string `json:"hostname"`
		Source     string `json:"source"`
		Status     int    `json:"status"`
		Outcome    string `json:"outcome"`
		Generation uint64 `json:"generation"`
	}
	recs := make([]rec, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &recs[i]); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
	if r := recs[0]; r.TS != 7 || r.ID != "q1" || r.Front != "dns" || r.Op != "TXT" ||
		r.Hostname != locatedName || r.Source != testSrc.String() ||
		r.Status != int(dnswire.RCodeNoError) || r.Outcome != "noerror" || r.Generation != 1 {
		t.Errorf("located record = %+v", r)
	}
	if r := recs[1]; r.Op != "PTR" || r.Outcome != "nxdomain" ||
		r.Status != int(dnswire.RCodeNXDomain) {
		t.Errorf("miss record = %+v", r)
	}
	if r := recs[2]; r.Outcome != "dropped" || r.Status != 0 {
		t.Errorf("dropped record = %+v", r)
	}
}
