package rtt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestMatrixRoundTrip(t *testing.T) {
	m := NewMatrix([]*VP{
		{Name: "a", Pos: vpLondon.Pos},
		{Name: "b", Pos: vpTokyo.Pos, SpoofTCP: true},
	})
	_ = m.SetPing("N1", "a", Sample{RTTms: 12.5, Method: ICMP})
	_ = m.SetPing("N1", "b", Sample{RTTms: 99.25, Method: TCP})
	_ = m.SetPing("N2", "a", Sample{RTTms: 3, Method: UDP})
	_ = m.SetTrace("N1", "a", Sample{RTTms: 80})

	var buf bytes.Buffer
	if err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VPs()) != 2 || !got.VP("b").SpoofTCP {
		t.Fatalf("VPs lost: %+v", got.VPs())
	}
	s, ok := got.Ping("N1", "b")
	if !ok || s.Method != TCP || math.Abs(s.RTTms-99.25) > 1e-9 {
		t.Errorf("ping lost: %+v %v", s, ok)
	}
	if s, ok := got.Ping("N2", "a"); !ok || s.Method != UDP || s.RTTms != 3 {
		t.Errorf("N2 ping lost: %+v %v", s, ok)
	}
	tr, ok := got.Trace("N1", "a")
	if !ok || tr.RTTms != 80 {
		t.Errorf("trace lost: %+v %v", tr, ok)
	}
	if got.VP("a").Pos.Lat == 0 {
		t.Error("coordinates lost")
	}
}

func TestReadMatrixErrors(t *testing.T) {
	cases := []struct {
		in   string
		line int // the line the error must name
	}{
		{"vp a 1 2\nping N1 a 5 icmp\nvp b 1 2", 3}, // vp after samples
		{"vp a x y", 1},                     // bad coords
		{"vp a 1 2 bogus", 1},               // unknown flag
		{"ping N1 a 5 icmp", 1},             // sample before any vp names its VP
		{"vp a 1 2\nping N1 b 5 icmp", 2},   // unknown vp
		{"vp a 1 2\nping N1 a x icmp", 2},   // bad rtt
		{"vp a 1 2\nping N1 a 5 smoke", 2},  // bad method
		{"vp a 1 2\ntrace N1 a", 2},         // short trace
		{"bogus", 1},                        // unknown record
		{"vp a", 1},                         // malformed vp
		{"vp a 1 2\nvp a 3 4", 2},           // duplicate vp: the first would be a dead column
		{"vp a nan nan", 1},                 // NaN coordinates: no candidate is consistent
		{"vp a 95 200", 1},                  // coordinates off the globe
		{"vp a 1 2\nping N1 a inf icmp", 2}, // infinite rtt: a ping that constrains nothing
	}
	for _, c := range cases {
		_, err := ReadMatrix(strings.NewReader(c.in))
		if want := fmt.Sprintf("rtt: line %d: ", c.line); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("input %q: err = %v, want one starting %q", c.in, err, want)
		}
	}
}

func TestReadMatrixEmpty(t *testing.T) {
	m, err := ReadMatrix(strings.NewReader("# nothing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.VPs()) != 0 {
		t.Error("expected empty matrix")
	}
}

// TestReadMatrixAllocs pins ReadMatrix to allocations that depend on
// the routers and VPs only: writing every sample line twice, the second
// time with a larger RTT, adds none, and the smaller RTT is kept.
func TestReadMatrixAllocs(t *testing.T) {
	const routers, vps = 200, 8
	var once, twice bytes.Buffer
	for v := 0; v < vps; v++ {
		line := fmt.Sprintf("vp vp%d %d %d\n", v, v, -v)
		once.WriteString(line)
		twice.WriteString(line)
	}
	for r := 0; r < routers; r++ {
		for v := 0; v < vps; v++ {
			for copies, w := range []*bytes.Buffer{&once, &twice} {
				for i := 0; i <= copies; i++ {
					fmt.Fprintf(w, "ping N%d vp%d %d.5 icmp\n", r, v, r+v+i)
					fmt.Fprintf(w, "trace N%d vp%d %d\n", r, v, 2*(r+v)+i)
				}
			}
		}
	}
	read := func(b []byte) *Matrix {
		m, err := ReadMatrix(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if err := sameMatrix(read(once.Bytes()), read(twice.Bytes())); err != nil {
		t.Fatalf("repeated samples changed the matrix: %v", err)
	}
	allocs := func(b []byte) float64 {
		return testing.AllocsPerRun(5, func() { read(b) })
	}
	a1, a2 := allocs(once.Bytes()), allocs(twice.Bytes())
	// Per router, at most a ping and a trace row and their two IDs (rows
	// are cut from shared slabs, so few allocate); per VP, the VP, its
	// name and its map entries; a fixed 100 for the scanner, the matrix
	// and map growth.
	bound := float64(4*routers + 4*vps + 100)
	if a1 > bound || a2 > bound {
		t.Errorf("allocs = %.0f for %d sample lines, %.0f with each written twice; want both <= %.0f",
			a1, 2*routers*vps, a2, bound)
	}
}

// readMatrixStrings is the reference for ReadMatrix: the same records,
// checks and error texts, parsed from strings.Fields of every line.
func readMatrixStrings(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	var vps []*VP
	var m *Matrix
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "vp":
			if m != nil {
				return nil, fmt.Errorf("rtt: line %d: vp record after samples", line)
			}
			if len(fields) < 4 || len(fields) > 5 {
				return nil, fmt.Errorf("rtt: line %d: malformed vp", line)
			}
			lat, err1 := strconv.ParseFloat(fields[2], 64)
			long, err2 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || math.IsNaN(lat) || math.IsNaN(long) ||
				math.Abs(lat) > 90 || math.Abs(long) > 180 {
				return nil, fmt.Errorf("rtt: line %d: bad coordinates", line)
			}
			vp := &VP{Name: fields[1]}
			vp.Pos.Lat, vp.Pos.Long = lat, long
			if len(fields) == 5 {
				if fields[4] != "spoof-tcp" {
					return nil, fmt.Errorf("rtt: line %d: unknown flag %q", line, fields[4])
				}
				vp.SpoofTCP = true
			}
			for _, prev := range vps {
				if prev.Name == vp.Name {
					return nil, fmt.Errorf("rtt: line %d: duplicate vp %q", line, vp.Name)
				}
			}
			vps = append(vps, vp)
		case "ping", "trace":
			if m == nil {
				m = NewMatrix(vps)
			}
			want := 5
			if fields[0] == "trace" {
				want = 4
			}
			if len(fields) != want {
				return nil, fmt.Errorf("rtt: line %d: malformed %s", line, fields[0])
			}
			rttMs, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("rtt: line %d: bad rtt: %w", line, err)
			}
			s := Sample{RTTms: rttMs}
			if fields[0] == "ping" {
				switch fields[4] {
				case "icmp":
					s.Method = ICMP
				case "udp":
					s.Method = UDP
				case "tcp":
					s.Method = TCP
				default:
					return nil, fmt.Errorf("rtt: line %d: bad method %q", line, fields[4])
				}
				if err := m.SetPing(fields[1], fields[2], s); err != nil {
					return nil, fmt.Errorf("rtt: line %d: %w", line, err)
				}
			} else {
				if err := m.SetTrace(fields[1], fields[2], s); err != nil {
					return nil, fmt.Errorf("rtt: line %d: %w", line, err)
				}
			}
		default:
			return nil, fmt.Errorf("rtt: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m == nil {
		m = NewMatrix(vps)
	}
	return m, nil
}

// sameMatrix reports how two matrices differ: in their VPs, or in any
// router's ping or trace row, empty slots and methods included.
func sameMatrix(a, b *Matrix) error {
	if len(a.vps) != len(b.vps) {
		return fmt.Errorf("%d VPs, %d VPs", len(a.vps), len(b.vps))
	}
	for i := range a.vps {
		if *a.vps[i] != *b.vps[i] {
			return fmt.Errorf("VP %d: %+v, %+v", i, *a.vps[i], *b.vps[i])
		}
	}
	for _, tab := range []struct {
		name string
		a, b *table
	}{{"ping", a.ping, b.ping}, {"trace", a.trace, b.trace}} {
		if err := sameTable(tab.a, tab.b); err != nil {
			return fmt.Errorf("%s: %v", tab.name, err)
		}
	}
	return nil
}

// sameTable reports how two tables differ: in their routers, or in any
// slot of a row, empty slots and methods included.
func sameTable(a, b *table) error {
	if len(a.rows) != len(b.rows) {
		return fmt.Errorf("%d routers, %d routers", len(a.rows), len(b.rows))
	}
	for router, ra := range a.rows {
		rb, ok := b.rows[router]
		if !ok || len(ra.rtt) != len(rb.rtt) {
			return fmt.Errorf("router %q missing or reshaped", router)
		}
		for i := range ra.rtt {
			if math.Float64bits(ra.rtt[i]) != math.Float64bits(rb.rtt[i]) || ra.method[i] != rb.method[i] {
				return fmt.Errorf("router %q VP %d: %+v, %+v", router, i, ra.sample(i), rb.sample(i))
			}
		}
	}
	return nil
}

// errText is err's text, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
