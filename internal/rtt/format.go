package rtt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"unicode/utf8"
)

// The matrix file format is line-oriented:
//
//	vp <name> <lat> <long> [spoof-tcp]
//	ping <router> <vp> <rtt-ms> <icmp|udp|tcp>
//	trace <router> <vp> <rtt-ms>
//
// Comment lines begin with '#'. All vp records must precede the sample
// records that reference them; VP names are unique, latitudes lie in
// [-90, 90] and longitudes in [-180, 180]. RTTs are finite and not
// negative, and a repeated (router, vp) pair keeps its smallest RTT.

// WriteMatrix serialises a matrix.
func WriteMatrix(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d vantage points\n", len(m.vps))
	for _, vp := range m.vps {
		fmt.Fprintf(bw, "vp %s %.4f %.4f", vp.Name, vp.Pos.Lat, vp.Pos.Long)
		if vp.SpoofTCP {
			bw.WriteString(" spoof-tcp")
		}
		bw.WriteByte('\n')
	}
	for _, router := range m.Routers() {
		for _, me := range m.PingMeasurements(router) {
			fmt.Fprintf(bw, "ping %s %s %.3f %s\n", router, me.VP.Name, me.Sample.RTTms, me.Sample.Method)
		}
	}
	traceRouters := make([]string, 0, len(m.trace.rows))
	for router := range m.trace.rows {
		traceRouters = append(traceRouters, router)
	}
	sort.Strings(traceRouters)
	for _, router := range traceRouters {
		for _, me := range m.TraceMeasurements(router) {
			fmt.Fprintf(bw, "trace %s %s %.3f\n", router, me.VP.Name, me.Sample.RTTms)
		}
	}
	return bw.Flush()
}

// ReadMatrix parses a matrix file. A line is split into fields in
// place, with no allocation, unless it holds a byte of 0x80 or more:
// then bytes.Fields, which splits as strings.Fields does, decides which
// runes separate fields.
func ReadMatrix(r io.Reader) (*Matrix, error) {
	return readMatrix(r, func([]byte, bool) bool { return true })
}

// ReadPings parses a matrix file as ReadMatrix does but stores only the
// ping samples of the routers in keep: the matrix has no trace row and
// no row for any other router. It parses and checks every line it does
// not store, so it accepts and rejects the inputs ReadMatrix does, with
// the same errors.
func ReadPings(r io.Reader, keep map[string]bool) (*Matrix, error) {
	return readMatrix(r, func(router []byte, ping bool) bool { return ping && keep[string(router)] })
}

// readMatrix is ReadMatrix and ReadPings: it stores a valid sample only
// when keep reports true for its router and kind.
func readMatrix(r io.Reader, keep func(router []byte, ping bool) bool) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	var vps []*VP
	vpNames := make(map[string]bool)
	var m *Matrix
	var buf [maxFields][]byte
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		fields, ok := splitASCII(b, &buf)
		if !ok {
			fields = bytes.Fields(b)
		}
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		switch string(fields[0]) {
		case "vp":
			if m != nil {
				return nil, fmt.Errorf("rtt: line %d: vp record after samples", line)
			}
			if len(fields) < 4 || len(fields) > 5 {
				return nil, fmt.Errorf("rtt: line %d: malformed vp", line)
			}
			// Coordinates off the globe would make every candidate
			// location inconsistent.
			lat, err1 := strconv.ParseFloat(string(fields[2]), 64)
			long, err2 := strconv.ParseFloat(string(fields[3]), 64)
			if err1 != nil || err2 != nil || !(lat >= -90 && lat <= 90) || !(long >= -180 && long <= 180) {
				return nil, fmt.Errorf("rtt: line %d: bad coordinates", line)
			}
			vp := &VP{Name: string(fields[1])}
			vp.Pos.Lat, vp.Pos.Long = lat, long
			if len(fields) == 5 {
				if string(fields[4]) != "spoof-tcp" {
					return nil, fmt.Errorf("rtt: line %d: unknown flag %q", line, fields[4])
				}
				vp.SpoofTCP = true
			}
			// A second VP of one name would leave the first a column
			// no sample can reach.
			if vpNames[vp.Name] {
				return nil, fmt.Errorf("rtt: line %d: duplicate vp %q", line, vp.Name)
			}
			vpNames[vp.Name] = true
			vps = append(vps, vp)
		case "ping", "trace":
			if m == nil {
				m = NewMatrix(vps)
			}
			ping := string(fields[0]) == "ping"
			want, tab := 5, m.ping
			if !ping {
				want, tab = 4, m.trace
			}
			if len(fields) != want {
				return nil, fmt.Errorf("rtt: line %d: malformed %s", line, fields[0])
			}
			rttMs, err := strconv.ParseFloat(string(fields[3]), 64)
			if err != nil {
				return nil, fmt.Errorf("rtt: line %d: bad rtt: %w", line, err)
			}
			s := Sample{RTTms: rttMs}
			if ping {
				switch string(fields[4]) {
				case "icmp":
					s.Method = ICMP
				case "udp":
					s.Method = UDP
				case "tcp":
					s.Method = TCP
				default:
					return nil, fmt.Errorf("rtt: line %d: bad method %q", line, fields[4])
				}
			}
			i, err := column(m, fields[2], s)
			if err != nil {
				return nil, fmt.Errorf("rtt: line %d: %w", line, err)
			}
			if keep(fields[1], ping) {
				store(tab, fields[1], i, s)
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

// maxFields is one more than the most fields a record has, enough for
// splitASCII to show that a line has too many.
const maxFields = 6

// splitASCII splits b into its first maxFields fields at the ASCII
// bytes unicode.IsSpace reports, as strings.Fields would. It returns
// false when b holds a byte of 0x80 or more.
func splitASCII(b []byte, buf *[maxFields][]byte) ([][]byte, bool) {
	n, start := 0, -1
	for i, c := range b {
		if c >= utf8.RuneSelf {
			return nil, false
		}
		switch c {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			if start >= 0 && n < maxFields {
				buf[n] = b[start:i]
				n++
			}
			start = -1
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 && n < maxFields {
		buf[n] = b[start:]
		n++
	}
	return buf[:n], true
}
