package rtt

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadMatrix: arbitrary matrix files must never panic; ReadMatrix
// must accept and reject exactly what the strings.Fields reference
// does, with the same error text and an equal matrix; ReadPings, keeping
// the routers whose IDs have an odd length, must accept and reject the
// same, with the same error text, and hold exactly ReadMatrix's ping
// rows of those routers; and anything accepted must survive a
// write/read round trip.
func FuzzReadMatrix(f *testing.F) {
	f.Add("vp a 1.0 2.0\nvp b 3.0 4.0 spoof-tcp\nping N1 a 5.5 icmp\ntrace N1 b 80 \n")
	f.Add("# empty\n")
	f.Add("vp a x y\n")
	f.Add("ping N1 a 5 icmp\n")
	f.Add("vp\ta\t1\t2\nping\tN1\ta\t5\tudp\n")
	f.Add("vp a 1 2\r\nping N1 a 5 tcp\r\n\r\n")
	f.Add("vp\u00a0a 1 2\nping N1 a\u00a05 icmp\n")
	f.Add("vp a 1 2\nping N1\u0085a 5 icmp\n")
	f.Add("vp a 1 2\nping N\xff1 a 5 icmp\n")
	f.Add("vp a 1 2\nping N1 a 9 icmp\nping N1 a 5 udp\nping N1 a 7 tcp\n")
	f.Add("vp a 1 2\nping N1 a 1e3 icmp\ntrace N1 a 0x1p3\n")
	f.Add("vp a 1 2\ntrace N1 a 5 icmp\n")
	f.Add("vp a 1 2\nvp b 3 4\nping N12 a 5 icmp\nping N1 b 6 udp\ntrace N12 a 9\nping N12 b 7 tcp\n")
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadMatrix(strings.NewReader(in))
		ref, refErr := readMatrixStrings(strings.NewReader(in))
		if errText(err) != errText(refErr) {
			t.Fatalf("error %q, reference %q", errText(err), errText(refErr))
		}
		keep := make(map[string]bool)
		for _, line := range strings.Split(in, "\n") {
			if fields := strings.Fields(line); len(fields) > 1 && len(fields[1])%2 == 1 {
				keep[fields[1]] = true
			}
		}
		pruned, prunedErr := ReadPings(strings.NewReader(in), keep)
		if errText(prunedErr) != errText(err) {
			t.Fatalf("ReadPings error %q, ReadMatrix error %q", errText(prunedErr), errText(err))
		}
		if err != nil {
			return
		}
		if diff := sameMatrix(m, ref); diff != nil {
			t.Fatalf("matrix differs from the reference: %v", diff)
		}
		want := newTable(len(m.vps))
		for router, r := range m.ping.rows {
			if keep[router] {
				want.rows[router] = r
			}
		}
		if len(pruned.trace.rows) != 0 {
			t.Fatalf("ReadPings kept %d trace rows", len(pruned.trace.rows))
		}
		if diff := sameTable(pruned.ping, want); diff != nil {
			t.Fatalf("ReadPings ping rows differ from ReadMatrix's kept rows: %v", diff)
		}
		if len(pruned.vps) != len(m.vps) {
			t.Fatalf("ReadPings read %d VPs, ReadMatrix %d", len(pruned.vps), len(m.vps))
		}
		for i := range m.vps {
			if *pruned.vps[i] != *m.vps[i] {
				t.Fatalf("VP %d: ReadPings %+v, ReadMatrix %+v", i, *pruned.vps[i], *m.vps[i])
			}
		}
		var buf bytes.Buffer
		if err := WriteMatrix(&buf, m); err != nil {
			t.Fatalf("accepted matrix failed to serialise: %v", err)
		}
		m2, err := ReadMatrix(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(m2.VPs()) != len(m.VPs()) || len(m2.Routers()) != len(m.Routers()) {
			t.Fatalf("round trip changed shape")
		}
	})
}
