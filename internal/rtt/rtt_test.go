package rtt

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hoiho/internal/geo"
)

var (
	vpLondon  = &VP{Name: "lon-gb", City: "london", Country: "gb", Pos: geo.LatLong{Lat: 51.5074, Long: -0.1278}}
	vpNewYork = &VP{Name: "nyc-us", City: "new york", Country: "us", Pos: geo.LatLong{Lat: 40.7128, Long: -74.0060}}
	vpTokyo   = &VP{Name: "tyo-jp", City: "tokyo", Country: "jp", Pos: geo.LatLong{Lat: 35.6762, Long: 139.6503}}
	ashburnP  = geo.LatLong{Lat: 39.0438, Long: -77.4874}
)

func newTestMatrix() *Matrix {
	return NewMatrix([]*VP{vpLondon, vpNewYork, vpTokyo})
}

func TestSetAndGet(t *testing.T) {
	m := newTestMatrix()
	if err := m.SetPing("N1", "nyc-us", Sample{RTTms: 5, Method: ICMP}); err != nil {
		t.Fatal(err)
	}
	s, ok := m.Ping("N1", "nyc-us")
	if !ok || s.RTTms != 5 {
		t.Errorf("Ping = %+v, %v", s, ok)
	}
	if _, ok := m.Ping("N1", "lon-gb"); ok {
		t.Error("no sample should exist for lon-gb")
	}
	if _, ok := m.Ping("N2", "nyc-us"); ok {
		t.Error("no sample should exist for N2")
	}
	if err := m.SetPing("N1", "nowhere", Sample{RTTms: 1}); err == nil {
		t.Error("unknown VP should error")
	}
	if err := m.SetPing("N1", "nyc-us", Sample{RTTms: -1}); err == nil {
		t.Error("negative RTT should error")
	}
	if err := m.SetPing("N1", "nyc-us", Sample{RTTms: math.NaN()}); err == nil {
		t.Error("NaN RTT should error")
	}
	if err := m.SetTrace("N2", "nyc-us", Sample{RTTms: math.Inf(1)}); err == nil || len(m.trace.rows) != 0 {
		t.Errorf("infinite RTT: err %v, %d trace rows; want an error and none", err, len(m.trace.rows))
	}
	// A row keeps a method in a byte: 256 would be stored as ICMP.
	for _, meth := range []Method{TCP + 1, 256, -1} {
		if err := m.SetPing("N2", "nyc-us", Sample{RTTms: 1, Method: meth}); err == nil || m.HasPing("N2") {
			t.Errorf("method %d: err %v, HasPing(N2) %v; want an error and no row", int(meth), err, m.HasPing("N2"))
		}
	}
}

// TestMatrixMemory pins the matrix's size: after GC, 2,000 routers with
// a ping and a trace sample from each of 28 VPs hold at most 12 bytes a
// slot, plus 128 bytes a row for its map entry and router ID. A row of
// 16-byte Samples would exceed it.
func TestMatrixMemory(t *testing.T) {
	const routers, nvp = 2000, 28
	vps := make([]*VP, nvp)
	for i := range vps {
		vps[i] = &VP{Name: fmt.Sprintf("vp%d", i)}
	}
	ids := make([]string, routers)
	for i := range ids {
		ids[i] = fmt.Sprintf("N%d", i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMatrix(vps)
	for _, id := range ids {
		for _, vp := range vps {
			if err := m.SetPing(id, vp.Name, Sample{RTTms: 5, Method: UDP}); err != nil {
				t.Fatal(err)
			}
			if err := m.SetTrace(id, vp.Name, Sample{RTTms: 9}); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	rows := int64(2 * routers)
	if bound := rows*nvp*12 + rows*128; held > bound {
		t.Errorf("matrix holds %d bytes, %.1f a slot; want at most %d", held, float64(held)/float64(rows*nvp), bound)
	}
	if s, ok := m.Ping(ids[routers-1], vps[nvp-1].Name); !ok || s.Method != UDP {
		t.Errorf("last ping = %+v, %v", s, ok)
	}
	runtime.KeepAlive(m)
}

func TestMinimumFiltering(t *testing.T) {
	m := newTestMatrix()
	_ = m.SetPing("N1", "nyc-us", Sample{RTTms: 9, Method: ICMP})
	_ = m.SetPing("N1", "nyc-us", Sample{RTTms: 5, Method: UDP})
	_ = m.SetPing("N1", "nyc-us", Sample{RTTms: 7, Method: ICMP})
	s, _ := m.Ping("N1", "nyc-us")
	if s.RTTms != 5 || s.Method != UDP {
		t.Errorf("minimum filtering failed: %+v", s)
	}
}

func TestMinPingAndSorting(t *testing.T) {
	m := newTestMatrix()
	_ = m.SetPing("N1", "lon-gb", Sample{RTTms: 80})
	_ = m.SetPing("N1", "nyc-us", Sample{RTTms: 6})
	_ = m.SetPing("N1", "tyo-jp", Sample{RTTms: 160})
	ms := m.PingMeasurements("N1")
	if len(ms) != 3 || ms[0].Sample.RTTms > ms[1].Sample.RTTms || ms[1].Sample.RTTms > ms[2].Sample.RTTms {
		t.Errorf("measurements unsorted: %+v", ms)
	}
	if min := ms[0]; min.VP.Name != "nyc-us" || min.Sample.RTTms != 6 {
		t.Errorf("minimum ping = %+v, want 6 ms from nyc-us", min)
	}
	if ms := m.PingMeasurements("N9"); len(ms) != 0 {
		t.Errorf("unknown router has ping measurements %+v", ms)
	}
}

func TestConsistent(t *testing.T) {
	m := newTestMatrix()
	// A 6ms RTT from New York is consistent with Ashburn (~330km), but a
	// 6ms RTT from London is not.
	_ = m.SetPing("N1", "nyc-us", Sample{RTTms: 6})
	if !m.Consistent("N1", ashburnP, 0.5) {
		t.Error("ashburn should be consistent with 6ms from nyc")
	}
	_ = m.SetPing("N1", "lon-gb", Sample{RTTms: 6})
	if m.Consistent("N1", ashburnP, 0.5) {
		t.Error("ashburn cannot be 6ms from london")
	}
	// Unknown router: vacuously consistent.
	if !m.Consistent("N9", ashburnP, 0.5) {
		t.Error("router without samples should be vacuously consistent")
	}
}

func TestConstraints(t *testing.T) {
	m := newTestMatrix()
	_ = m.SetPing("N1", "nyc-us", Sample{RTTms: 6})
	_ = m.SetPing("N1", "lon-gb", Sample{RTTms: 90})
	cs := m.Constraints("N1")
	if len(cs) != 2 {
		t.Fatalf("constraints = %d", len(cs))
	}
	if !geo.Feasible(ashburnP, cs) {
		t.Error("ashburn should be feasible under these constraints")
	}
}

func TestRouters(t *testing.T) {
	m := newTestMatrix()
	_ = m.SetPing("N2", "nyc-us", Sample{RTTms: 5})
	_ = m.SetPing("N1", "nyc-us", Sample{RTTms: 5})
	ids := m.Routers()
	if len(ids) != 2 || ids[0] != "N1" || ids[1] != "N2" {
		t.Errorf("Routers = %v", ids)
	}
}

func TestTraceSeparateFromPing(t *testing.T) {
	m := newTestMatrix()
	_ = m.SetTrace("N1", "nyc-us", Sample{RTTms: 40})
	if m.HasPing("N1") {
		t.Error("trace sample should not count as ping")
	}
	tr, ok := m.Trace("N1", "nyc-us")
	if !ok || tr.RTTms != 40 {
		t.Errorf("Trace = %+v, %v", tr, ok)
	}
	if ms := m.TraceMeasurements("N1"); len(ms) != 1 || ms[0].Sample.RTTms != 40 {
		t.Errorf("TraceMeasurements = %+v", ms)
	}
}

func TestDropTCPFrom(t *testing.T) {
	m := newTestMatrix()
	_ = m.SetPing("N1", "nyc-us", Sample{RTTms: 2, Method: TCP})
	_ = m.SetPing("N1", "lon-gb", Sample{RTTms: 2, Method: TCP})
	_ = m.SetPing("N2", "nyc-us", Sample{RTTms: 5, Method: ICMP})
	removed := m.DropTCPFrom([]string{"nyc-us", "ghost"})
	if removed != 1 {
		t.Errorf("removed = %d, want 1", removed)
	}
	if _, ok := m.Ping("N1", "nyc-us"); ok {
		t.Error("TCP sample from nyc-us should be dropped")
	}
	if _, ok := m.Ping("N1", "lon-gb"); !ok {
		t.Error("TCP sample from lon-gb should remain")
	}
	if _, ok := m.Ping("N2", "nyc-us"); !ok {
		t.Error("ICMP sample should remain")
	}
	// A router whose every sample is dropped has no ping sample left.
	_ = m.SetPing("N3", "nyc-us", Sample{RTTms: 2, Method: TCP})
	m.DropTCPFrom([]string{"nyc-us"})
	if ids := m.Routers(); len(ids) != 2 || ids[0] != "N1" || ids[1] != "N2" || m.HasPing("N3") {
		t.Errorf("after dropping N3's only sample: Routers = %v, HasPing(N3) = %v", ids, m.HasPing("N3"))
	}
}

func TestDetectTCPSpoofers(t *testing.T) {
	m := newTestMatrix()
	// nyc-us spoofs: tiny TCP RTTs to many routers.
	for i := 0; i < 20; i++ {
		id := "N" + string(rune('a'+i))
		_ = m.SetPing(id, "nyc-us", Sample{RTTms: 1.5, Method: TCP})
		_ = m.SetPing(id, "lon-gb", Sample{RTTms: 50 + float64(i), Method: TCP})
	}
	got := m.DetectTCPSpoofers(10)
	if len(got) != 1 || got[0] != "nyc-us" {
		t.Errorf("DetectTCPSpoofers = %v", got)
	}
	// Below the sample threshold nothing is flagged.
	m2 := newTestMatrix()
	_ = m2.SetPing("N1", "nyc-us", Sample{RTTms: 1.5, Method: TCP})
	if got := m2.DetectTCPSpoofers(10); len(got) != 0 {
		t.Errorf("spoofers below threshold = %v", got)
	}
}

func TestDelayModelNeverViolatesPhysics(t *testing.T) {
	dm := DefaultDelayModel()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		from := geo.LatLong{Lat: rng.Float64()*160 - 80, Long: rng.Float64()*360 - 180}
		to := geo.LatLong{Lat: rng.Float64()*160 - 80, Long: rng.Float64()*360 - 180}
		got := dm.MinOfN(rng, from, to, 3)
		if got < geo.MinRTTms(from, to) {
			t.Fatalf("sampled RTT %.2f below physical minimum %.2f", got, geo.MinRTTms(from, to))
		}
	}
}

func TestDelayModelMinOfNShrinks(t *testing.T) {
	dm := DefaultDelayModel()
	from := vpLondon.Pos
	to := ashburnP
	rng1 := rand.New(rand.NewSource(1))
	rng2 := rand.New(rand.NewSource(1))
	var sum1, sum10 float64
	for i := 0; i < 200; i++ {
		sum1 += dm.MinOfN(rng1, from, to, 1)
		sum10 += dm.MinOfN(rng2, from, to, 10)
	}
	if sum10 >= sum1 {
		t.Errorf("min-of-10 mean %.1f should be below min-of-1 mean %.1f", sum10/200, sum1/200)
	}
}

func TestProbeMethodOrder(t *testing.T) {
	dm := DefaultDelayModel()
	rng := rand.New(rand.NewSource(3))
	vp := vpNewYork
	s, ok := dm.Probe(rng, vp, ashburnP, Responsiveness{ICMP: true, UDP: true, TCP: true})
	if !ok || s.Method != ICMP {
		t.Errorf("ICMP-responsive router should be probed with ICMP, got %+v", s)
	}
	s, ok = dm.Probe(rng, vp, ashburnP, Responsiveness{UDP: true, TCP: true})
	if !ok || s.Method != UDP {
		t.Errorf("UDP before TCP, got %+v", s)
	}
	s, ok = dm.Probe(rng, vp, ashburnP, Responsiveness{TCP: true})
	if !ok || s.Method != TCP {
		t.Errorf("TCP fallback, got %+v", s)
	}
	if _, ok := dm.Probe(rng, vp, ashburnP, Responsiveness{}); ok {
		t.Error("unresponsive router should yield no sample from honest VP")
	}
}

func TestSpoofingVP(t *testing.T) {
	dm := DefaultDelayModel()
	rng := rand.New(rand.NewSource(4))
	spoof := &VP{Name: "bad", Pos: vpTokyo.Pos, SpoofTCP: true}
	// Even an unresponsive router "answers" through a spoofing VP...
	s, ok := dm.Probe(rng, spoof, ashburnP, Responsiveness{})
	if !ok || s.Method != TCP || s.RTTms >= 3 {
		t.Errorf("spoofed sample = %+v, %v; want tiny TCP RTT", s, ok)
	}
	// ...and the RTT violates physics (Tokyo to Ashburn in <3 ms).
	if s.RTTms >= geo.MinRTTms(spoof.Pos, ashburnP) {
		t.Error("spoofed RTT should violate the physical minimum (that's the pathology)")
	}
	// But ICMP responsiveness bypasses the spoofer.
	s, _ = dm.Probe(rng, spoof, ashburnP, Responsiveness{ICMP: true})
	if s.Method != ICMP || s.RTTms < geo.MinRTTms(spoof.Pos, ashburnP) {
		t.Errorf("ICMP probe through spoofing VP should be honest, got %+v", s)
	}
}

func TestTraceObservationInflated(t *testing.T) {
	dm := DefaultDelayModel()
	rng := rand.New(rand.NewSource(5))
	var pingSum, traceSum float64
	for i := 0; i < 200; i++ {
		pingSum += dm.MinOfN(rng, vpLondon.Pos, ashburnP, 3)
		traceSum += dm.TraceObservation(rng, vpLondon, ashburnP).RTTms
	}
	if traceSum < 2*pingSum {
		t.Errorf("trace RTTs should be much larger than ping RTTs: %.0f vs %.0f", traceSum/200, pingSum/200)
	}
}

func TestResponsivenessDraw(t *testing.T) {
	dm := DefaultDelayModel()
	rng := rand.New(rand.NewSource(6))
	responding := 0
	n := 2000
	for i := 0; i < n; i++ {
		if dm.DrawResponsiveness(rng).Responds() {
			responding++
		}
	}
	frac := float64(responding) / float64(n)
	// With defaults ~0.70 + extras, expect roughly 80-95% responding.
	if frac < 0.75 || frac > 0.98 {
		t.Errorf("responding fraction = %.2f, want ~0.82-0.95", frac)
	}
}

func TestMethodString(t *testing.T) {
	if ICMP.String() != "icmp" || UDP.String() != "udp" || TCP.String() != "tcp" {
		t.Error("method names wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown method should still render")
	}
}

func TestVPLookup(t *testing.T) {
	m := newTestMatrix()
	if vp := m.VP("lon-gb"); vp == nil || vp.City != "london" {
		t.Errorf("VP(lon-gb) = %+v", vp)
	}
	if m.VP("nope") != nil {
		t.Error("unknown VP should be nil")
	}
	if len(m.VPs()) != 3 {
		t.Error("VPs() wrong length")
	}
}
