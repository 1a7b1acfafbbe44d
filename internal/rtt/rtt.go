// Package rtt implements the delay-measurement plane of the Hoiho method
// (paper §5.1.4): a set of vantage points (VPs) with known locations, a
// matrix of minimum round-trip times from each VP to each router, and the
// RTT-consistency predicate that decides whether a candidate geohint
// location is physically plausible given every measurement.
//
// The package also provides the probe simulator that substitutes for
// CAIDA's Ark measurement infrastructure: it synthesises ping campaigns
// (ICMP, then UDP, then TCP probes; minimum of three samples) over a
// ground-truth topology, including the pathological access routers the
// paper found spoofing TCP resets with 1–2 ms RTTs.
package rtt

import (
	"fmt"
	"math"
	"sort"

	"hoiho/internal/geo"
)

// Method identifies how an RTT sample was solicited.
type Method int

// Probe methods, in the order the paper's campaign tries them.
const (
	ICMP Method = iota // ICMP echo
	UDP                // UDP to an unused port, ICMP port unreachable back
	TCP                // TCP ACK to port 80, TCP RST back
)

// String returns the probe method name.
func (m Method) String() string {
	switch m {
	case ICMP:
		return "icmp"
	case UDP:
		return "udp"
	case TCP:
		return "tcp"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// VP is a measurement vantage point with a known location.
type VP struct {
	Name    string // e.g. "cgs-us"
	City    string
	Country string
	Pos     geo.LatLong
	// SpoofTCP marks a VP whose access router spoofs TCP RST responses,
	// returning 1-2ms RTTs regardless of target distance (paper §5.1.4
	// discarded TCP RTTs from seven such VPs).
	SpoofTCP bool
}

// Sample is one minimum-of-three RTT measurement.
type Sample struct {
	RTTms  float64
	Method Method
}

// Matrix stores per-router RTT samples from every VP, for both the
// followup ping campaign and the RTTs observed in the traceroutes that
// assembled the topology (the only RTTs DRoP used; see paper fig. 5).
type Matrix struct {
	vps   []*VP
	vpIx  map[string]int
	ping  map[string][]Sample // router ID -> per-VP sample (NaN = none)
	trace map[string][]Sample
}

// NewMatrix returns a matrix over the given vantage points.
func NewMatrix(vps []*VP) *Matrix {
	m := &Matrix{
		vps:   vps,
		vpIx:  make(map[string]int, len(vps)),
		ping:  make(map[string][]Sample),
		trace: make(map[string][]Sample),
	}
	for i, vp := range vps {
		m.vpIx[vp.Name] = i
	}
	return m
}

// VPs returns the matrix's vantage points.
func (m *Matrix) VPs() []*VP { return m.vps }

// VP returns the vantage point with the given name, or nil.
func (m *Matrix) VP(name string) *VP {
	if i, ok := m.vpIx[name]; ok {
		return m.vps[i]
	}
	return nil
}

// SetPing records a followup ping sample; an existing larger sample is
// replaced (minimum RTT filtering).
func (m *Matrix) SetPing(router, vp string, s Sample) error {
	return set(m, m.ping, router, vp, s)
}

// SetTrace records a traceroute-observed RTT sample.
func (m *Matrix) SetTrace(router, vp string, s Sample) error {
	return set(m, m.trace, router, vp, s)
}

// set records s in router's row of table, keeping the smaller RTT. It
// takes the router and VP as strings from SetPing and SetTrace and as
// the line's bytes from ReadMatrix; the map lookups allocate neither
// way, so only a router's first sample allocates, its ID and its row.
func set[K string | []byte](m *Matrix, table map[string][]Sample, router, vp K, s Sample) error {
	i, ok := m.vpIx[string(vp)]
	if !ok {
		return fmt.Errorf("rtt: unknown VP %q", string(vp))
	}
	// An infinite RTT constrains nothing, yet it would make HasPing true.
	if s.RTTms < 0 || math.IsNaN(s.RTTms) || math.IsInf(s.RTTms, 0) {
		return fmt.Errorf("rtt: invalid RTT %v", s.RTTms)
	}
	row := table[string(router)]
	if row == nil {
		row = make([]Sample, len(m.vps))
		for j := range row {
			row[j].RTTms = math.NaN()
		}
		table[string(router)] = row
	}
	if math.IsNaN(row[i].RTTms) || s.RTTms < row[i].RTTms {
		row[i] = s
	}
	return nil
}

// Ping returns the followup ping sample from vp to router.
func (m *Matrix) Ping(router, vp string) (Sample, bool) {
	return m.get(m.ping, router, vp)
}

// Trace returns the traceroute-observed sample from vp to router.
func (m *Matrix) Trace(router, vp string) (Sample, bool) {
	return m.get(m.trace, router, vp)
}

func (m *Matrix) get(table map[string][]Sample, router, vp string) (Sample, bool) {
	i, ok := m.vpIx[vp]
	if !ok {
		return Sample{}, false
	}
	row, ok := table[router]
	if !ok || math.IsNaN(row[i].RTTms) {
		return Sample{}, false
	}
	return row[i], true
}

// Measurement pairs a VP with its RTT sample toward some router.
type Measurement struct {
	VP     *VP
	Sample Sample
}

// PingMeasurements returns every followup ping measurement for router,
// sorted by ascending RTT.
func (m *Matrix) PingMeasurements(router string) []Measurement {
	return m.measurements(m.ping, router)
}

// TraceMeasurements returns every traceroute-observed measurement for
// router, sorted by ascending RTT.
func (m *Matrix) TraceMeasurements(router string) []Measurement {
	return m.measurements(m.trace, router)
}

func (m *Matrix) measurements(table map[string][]Sample, router string) []Measurement {
	row, ok := table[router]
	if !ok {
		return nil
	}
	out := make([]Measurement, 0, len(row))
	for i, s := range row {
		if !math.IsNaN(s.RTTms) {
			out = append(out, Measurement{VP: m.vps[i], Sample: s})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sample.RTTms < out[j].Sample.RTTms })
	return out
}

// MinPing returns the smallest followup ping RTT for router and the VP
// that measured it.
func (m *Matrix) MinPing(router string) (Measurement, bool) {
	ms := m.PingMeasurements(router)
	if len(ms) == 0 {
		return Measurement{}, false
	}
	return ms[0], true
}

// MinTrace returns the smallest traceroute-observed RTT for router.
func (m *Matrix) MinTrace(router string) (Measurement, bool) {
	ms := m.TraceMeasurements(router)
	if len(ms) == 0 {
		return Measurement{}, false
	}
	return ms[0], true
}

// HasPing reports whether any VP has a ping sample for router. Stage 2
// calls it once per hostname and keeps the answer for stage 3, and it
// scans the row directly instead of materializing the sorted
// measurement slice.
func (m *Matrix) HasPing(router string) bool {
	for _, s := range m.ping[router] {
		if !math.IsNaN(s.RTTms) {
			return true
		}
	}
	return false
}

// Consistent reports whether a candidate location for router is
// RTT-consistent: for every VP with a ping sample, the measured RTT must
// be no smaller than the theoretical best-case RTT from the VP to the
// candidate (paper §5.2). toleranceMs absorbs measurement granularity.
// A router with no samples is vacuously consistent with any location.
func (m *Matrix) Consistent(router string, candidate geo.LatLong, toleranceMs float64) bool {
	row, ok := m.ping[router]
	if !ok {
		return true
	}
	for i, s := range row {
		if math.IsNaN(s.RTTms) {
			continue
		}
		if !geo.RTTConsistent(m.vps[i].Pos, candidate, s.RTTms, toleranceMs) {
			return false
		}
	}
	return true
}

// Constraints converts a router's ping measurements into CBG constraints.
func (m *Matrix) Constraints(router string) []geo.Constraint {
	var out []geo.Constraint
	for _, me := range m.PingMeasurements(router) {
		out = append(out, geo.Constraint{VP: me.VP.Pos, RTTms: me.Sample.RTTms})
	}
	return out
}

// Routers returns the IDs of routers with at least one ping sample,
// sorted lexicographically.
func (m *Matrix) Routers() []string {
	out := make([]string, 0, len(m.ping))
	for id := range m.ping {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// DropTCPFrom removes TCP-method ping samples recorded from the named
// VPs — the paper's remedy after detecting spoofed TCP resets.
func (m *Matrix) DropTCPFrom(vpNames []string) int {
	drop := make(map[int]bool)
	for _, n := range vpNames {
		if i, ok := m.vpIx[n]; ok {
			drop[i] = true
		}
	}
	removed := 0
	for _, row := range m.ping {
		for i := range row {
			if drop[i] && !math.IsNaN(row[i].RTTms) && row[i].Method == TCP {
				row[i].RTTms = math.NaN()
				removed++
			}
		}
	}
	return removed
}

// DetectTCPSpoofers identifies VPs whose TCP samples are implausibly
// small across many distant routers: a VP is flagged when it has at
// least minSamples TCP samples and at least 90% of them are under 3 ms.
// Real campaigns see sub-3ms TCP RTTs only to nearby targets, so a VP
// answering everything in 1-2 ms has a spoofing access router.
func (m *Matrix) DetectTCPSpoofers(minSamples int) []string {
	type acc struct{ total, tiny int }
	counts := make([]acc, len(m.vps))
	for _, row := range m.ping {
		for i, s := range row {
			if math.IsNaN(s.RTTms) || s.Method != TCP {
				continue
			}
			counts[i].total++
			if s.RTTms < 3 {
				counts[i].tiny++
			}
		}
	}
	var out []string
	for i, c := range counts {
		if c.total >= minSamples && float64(c.tiny) >= 0.9*float64(c.total) {
			out = append(out, m.vps[i].Name)
		}
	}
	sort.Strings(out)
	return out
}
