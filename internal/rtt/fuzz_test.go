package rtt

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadMatrix: arbitrary matrix files must never panic; ReadMatrix
// must accept and reject exactly what the strings.Fields reference
// does, with the same error text and an equal matrix; and anything
// accepted must survive a write/read round trip.
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
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadMatrix(strings.NewReader(in))
		ref, refErr := readMatrixStrings(strings.NewReader(in))
		if errText(err) != errText(refErr) {
			t.Fatalf("error %q, reference %q", errText(err), errText(refErr))
		}
		if err != nil {
			return
		}
		if diff := sameMatrix(m, ref); diff != nil {
			t.Fatalf("matrix differs from the reference: %v", diff)
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
