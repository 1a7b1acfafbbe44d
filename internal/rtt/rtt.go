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
	ping  *table
	trace *table
}

// table holds one campaign's samples: a row for each router with at
// least one sample, so a row without one is deleted. A row keeps its
// RTTs and probe methods in two arrays, 9 bytes a VP where a Sample
// takes 16, and a NaN RTT marks a VP without a sample. Rows are cut
// from shared slabs, so a new row seldom allocates.
type table struct {
	width  int // slots per row: the matrix's VP count
	rows   map[string]row
	rtt    []float64 // the newest slab's unused tail
	method []uint8
}

type row struct {
	rtt    []float64
	method []uint8 // a Method per slot
}

// slabSlots is about how many slots a slab holds: 16 KB of RTTs.
const slabSlots = 2048

func newTable(width int) *table {
	return &table{width: width, rows: make(map[string]row)}
}

// newRow cuts a row of empty slots from t's slab, starting a new slab
// when this one is used up.
func (t *table) newRow() row {
	n := t.width
	if len(t.rtt) < n {
		k := max(slabSlots/n, 1) * n
		t.rtt, t.method = make([]float64, k), make([]uint8, k)
	}
	r := row{rtt: t.rtt[:n:n], method: t.method[:n:n]}
	t.rtt, t.method = t.rtt[n:], t.method[n:]
	for i := range r.rtt {
		r.rtt[i] = math.NaN()
	}
	return r
}

func (r row) sample(i int) Sample {
	return Sample{RTTms: r.rtt[i], Method: Method(r.method[i])}
}

// NewMatrix returns a matrix over the given vantage points.
func NewMatrix(vps []*VP) *Matrix {
	m := &Matrix{
		vps:   vps,
		vpIx:  make(map[string]int, len(vps)),
		ping:  newTable(len(vps)),
		trace: newTable(len(vps)),
	}
	for i, vp := range vps {
		m.vpIx[vp.Name] = i
	}
	return m
}

// VPs returns the matrix's vantage points.
func (m *Matrix) VPs() []*VP { return m.vps }

// SetPing records a followup ping sample; an existing larger sample is
// replaced (minimum RTT filtering).
func (m *Matrix) SetPing(router, vp string, s Sample) error {
	return m.set(m.ping, router, vp, s)
}

// SetTrace records a traceroute-observed RTT sample.
func (m *Matrix) SetTrace(router, vp string, s Sample) error {
	return m.set(m.trace, router, vp, s)
}

func (m *Matrix) set(t *table, router, vp string, s Sample) error {
	i, err := column(m, vp, s)
	if err != nil {
		return err
	}
	store(t, router, i, s)
	return nil
}

// column checks a sample from vp and returns vp's column. ReadMatrix
// and ReadPings call it for every sample line, stored or not, so a line
// ReadPings skips fails as ReadMatrix fails it.
func column[K string | []byte](m *Matrix, vp K, s Sample) (int, error) {
	i, ok := m.vpIx[string(vp)]
	if !ok {
		return 0, fmt.Errorf("rtt: unknown VP %q", string(vp))
	}
	// An infinite RTT constrains nothing, yet it would make HasPing true.
	if s.RTTms < 0 || math.IsNaN(s.RTTms) || math.IsInf(s.RTTms, 0) {
		return 0, fmt.Errorf("rtt: invalid RTT %v", s.RTTms)
	}
	// A row stores the method in a byte, which would wrap any other.
	if s.Method < ICMP || s.Method > TCP {
		return 0, fmt.Errorf("rtt: invalid method %d", int(s.Method))
	}
	return i, nil
}

// store records s in column i of router's row of t, keeping the smaller
// RTT. It takes the router as a string from SetPing and SetTrace and as
// the line's bytes from ReadMatrix; the map lookup allocates neither
// way, so only a router's first sample allocates: its ID, and a slab
// when the last one is used up.
func store[K string | []byte](t *table, router K, i int, s Sample) {
	r, ok := t.rows[string(router)]
	if !ok {
		r = t.newRow()
		t.rows[string(router)] = r
	}
	if math.IsNaN(r.rtt[i]) || s.RTTms < r.rtt[i] {
		r.rtt[i], r.method[i] = s.RTTms, uint8(s.Method)
	}
}

// Ping returns the followup ping sample from vp to router.
func (m *Matrix) Ping(router, vp string) (Sample, bool) {
	i, ok := m.vpIx[vp]
	if !ok {
		return Sample{}, false
	}
	r, ok := m.ping.rows[router]
	if !ok || math.IsNaN(r.rtt[i]) {
		return Sample{}, false
	}
	return r.sample(i), true
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

func (m *Matrix) measurements(t *table, router string) []Measurement {
	r, ok := t.rows[router]
	if !ok {
		return nil
	}
	out := make([]Measurement, 0, len(r.rtt))
	for i, v := range r.rtt {
		if !math.IsNaN(v) {
			out = append(out, Measurement{VP: m.vps[i], Sample: r.sample(i)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sample.RTTms < out[j].Sample.RTTms })
	return out
}

// HasPing reports whether any VP has a ping sample for router. Stage 2
// calls it once per hostname and keeps the answer for stage 3. A table
// keeps a row only while it holds a sample, so the row's presence is
// the answer.
func (m *Matrix) HasPing(router string) bool {
	_, ok := m.ping.rows[router]
	return ok
}

// Consistent reports whether a candidate location for router is
// RTT-consistent: for every VP with a ping sample, the measured RTT must
// be no smaller than the theoretical best-case RTT from the VP to the
// candidate (paper §5.2). toleranceMs absorbs measurement granularity.
// A router with no samples is vacuously consistent with any location.
func (m *Matrix) Consistent(router string, candidate geo.LatLong, toleranceMs float64) bool {
	r, ok := m.ping.rows[router]
	if !ok {
		return true
	}
	for i, v := range r.rtt {
		if math.IsNaN(v) {
			continue
		}
		if !geo.RTTConsistent(m.vps[i].Pos, candidate, v, toleranceMs) {
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
	out := make([]string, 0, len(m.ping.rows))
	for id := range m.ping.rows {
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
	for id, r := range m.ping.rows {
		left := false
		for i, v := range r.rtt {
			switch {
			case math.IsNaN(v):
			case drop[i] && Method(r.method[i]) == TCP:
				r.rtt[i] = math.NaN()
				removed++
			default:
				left = true
			}
		}
		if !left {
			delete(m.ping.rows, id)
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
	for _, r := range m.ping.rows {
		for i, v := range r.rtt {
			if math.IsNaN(v) || Method(r.method[i]) != TCP {
				continue
			}
			counts[i].total++
			if v < 3 {
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
