package itdk

import (
	"bytes"
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"

	"hoiho/internal/geo"
	"hoiho/internal/psl"
)

func mkRouter(t *testing.T, id string, addrs ...string) *Router {
	t.Helper()
	r := &Router{ID: id}
	for _, a := range addrs {
		r.Interfaces = append(r.Interfaces, Interface{Addr: netip.MustParseAddr(a)})
	}
	return r
}

func TestCorpusAdd(t *testing.T) {
	c := NewCorpus("test", false)
	if err := c.Add(mkRouter(t, "N1", "192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(mkRouter(t, "N1", "192.0.2.2")); err == nil {
		t.Error("duplicate ID should error")
	}
	if err := c.Add(&Router{}); err == nil {
		t.Error("empty ID should error")
	}
	if c.Router("N1") == nil || c.Router("N2") != nil {
		t.Error("Router lookup wrong")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestHostnames(t *testing.T) {
	r := mkRouter(t, "N1", "192.0.2.1", "192.0.2.2", "192.0.2.3")
	r.Interfaces[0].Hostname = "a.example.com"
	r.Interfaces[2].Hostname = "a.example.com" // duplicate
	hs := r.Hostnames()
	if len(hs) != 1 || hs[0] != "a.example.com" {
		t.Errorf("Hostnames = %v", hs)
	}
	if !r.HasHostname() {
		t.Error("HasHostname should be true")
	}
	if mkRouter(t, "N2", "192.0.2.9").HasHostname() {
		t.Error("router without PTR should report no hostname")
	}
}

func TestGroupBySuffix(t *testing.T) {
	list := psl.MustDefault()
	c := NewCorpus("test", false)
	r1 := mkRouter(t, "N1", "192.0.2.1", "192.0.2.2")
	r1.Interfaces[0].Hostname = "e0.cr1.lhr1.ntt.net"
	r1.Interfaces[1].Hostname = "e1.cr1.lhr1.ntt.net"
	r2 := mkRouter(t, "N2", "192.0.2.3")
	r2.Interfaces[0].Hostname = "gw.ccnw.net.au"
	r3 := mkRouter(t, "N3", "192.0.2.4")
	r3.Interfaces[0].Hostname = "ntt.net" // bare suffix: skipped
	for _, r := range []*Router{r1, r2, r3} {
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	groups := c.GroupBySuffix(list)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if groups[0].Suffix != "ccnw.net.au" || groups[1].Suffix != "ntt.net" {
		t.Errorf("suffixes = %s, %s", groups[0].Suffix, groups[1].Suffix)
	}
	if len(groups[1].Hosts) != 2 {
		t.Errorf("ntt.net hosts = %d, want 2", len(groups[1].Hosts))
	}
}

func TestStats(t *testing.T) {
	c := NewCorpus("test", false)
	r1 := mkRouter(t, "N1", "192.0.2.1")
	r1.Interfaces[0].Hostname = "a.example.com"
	r1.Truth = &GroundTruth{City: "ashburn", Region: "va", Country: "us",
		Pos: geo.LatLong{Lat: 39.04, Long: -77.49}}
	r2 := mkRouter(t, "N2", "192.0.2.2")
	_ = c.Add(r1)
	_ = c.Add(r2)
	s := c.Stats()
	if s.Routers != 2 || s.WithHostname != 1 || s.WithTruth != 1 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestRoundTrip(t *testing.T) {
	c := NewCorpus("rt", false)
	r1 := mkRouter(t, "N1", "192.0.2.1", "192.0.2.2")
	r1.Interfaces[0].Hostname = "e0.cr1.iad1.example.net"
	r1.Truth = &GroundTruth{City: "ashburn", Region: "va", Country: "us",
		Pos: geo.LatLong{Lat: 39.0438, Long: -77.4874}}
	r2 := mkRouter(t, "N2", "2001:db8::1")
	_ = c.Add(r1)
	_ = c.Add(r2)

	var buf bytes.Buffer
	if err := WriteNodes(&buf, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteNames(&buf, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteGeo(&buf, c); err != nil {
		t.Fatal(err)
	}

	got, err := ReadCorpus(&buf, "rt", false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round-trip Len = %d", got.Len())
	}
	gr := got.Router("N1")
	if gr == nil {
		t.Fatal("N1 missing after round trip")
	}
	if gr.Interfaces[0].Hostname != "e0.cr1.iad1.example.net" {
		t.Errorf("hostname lost: %+v", gr.Interfaces)
	}
	if gr.Truth == nil || gr.Truth.City != "ashburn" || gr.Truth.Region != "va" {
		t.Errorf("truth lost: %+v", gr.Truth)
	}
	if geo.DistanceKm(gr.Truth.Pos, r1.Truth.Pos) > 0.1 {
		t.Errorf("truth position drifted: %v", gr.Truth.Pos)
	}
}

func TestReadCorpusErrors(t *testing.T) {
	cases := []string{
		"node.name N9 192.0.2.1 host.example.com",        // unknown router
		"node N1: not-an-address",                        // bad addr
		"bogus N1",                                       // unknown record
		"node N1: 192.0.2.1\nnode.name N1 192.0.2.2 h.x", // unknown interface
		"node N1: 192.0.2.1\nnode.geo N1: x y a|b|c",     // bad lat
		"node N1: 192.0.2.1\nnode.geo N1: 1.0 2.0 nope",  // bad location
		"node N1: 192.0.2.1\nnode N1: 192.0.2.2",         // dup router
		"node.name too few",                              // short record
	}
	for _, in := range cases {
		if _, err := ReadCorpus(strings.NewReader(in), "x", false); err == nil {
			t.Errorf("input %q should fail to parse", in)
		}
	}
}

func TestReadCorpusSkipsComments(t *testing.T) {
	in := "# comment\n\nnode N1: 192.0.2.1\n"
	c, err := ReadCorpus(strings.NewReader(in), "x", false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestHostnameLowercasedOnRead(t *testing.T) {
	in := "node N1: 192.0.2.1\nnode.name N1 192.0.2.1 CR1.LHR.Example.NET\n"
	c, err := ReadCorpus(strings.NewReader(in), "x", false)
	if err != nil {
		t.Fatal(err)
	}
	if hn := c.Router("N1").Interfaces[0].Hostname; hn != "cr1.lhr.example.net" {
		t.Errorf("hostname = %q", hn)
	}
}

// TestReadCorpusKeepsNoLines: what a Router keeps is copied out of its
// line, so a corpus whose lines each carry 4 KB of trailing blanks holds
// far less than a line apiece after GC.
func TestReadCorpusKeepsNoLines(t *testing.T) {
	const routers, pad = 200, 4096
	blanks := strings.Repeat(" ", pad)
	var b strings.Builder
	for i := 0; i < routers; i++ {
		fmt.Fprintf(&b, "node N%d: 192.0.2.%d%s\n", i, i%250, blanks)
		fmt.Fprintf(&b, "node.name N%d 192.0.2.%d r%d.example.net%s\n", i, i%250, i, blanks)
		fmt.Fprintf(&b, "node.geo N%d: 39.0 -77.5 ashburn|va|us%s\n", i, blanks)
	}
	in := []byte(b.String())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := ReadCorpus(bytes.NewReader(in), "padded", false)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if lines := int64(3 * routers); held > lines*pad/8 {
		t.Errorf("corpus of %d routers holds %d bytes; %d lines of %d bytes each should not be held", routers, held, lines, pad)
	}
	if h := c.Routers[routers-1].Interfaces[0].Hostname; h != fmt.Sprintf("r%d.example.net", routers-1) {
		t.Errorf("last hostname %q", h)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(in)
}
