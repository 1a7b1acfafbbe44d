package dnsserve

import (
	"bytes"
	"strings"
	"testing"

	"hoiho/internal/dnswire"
	"hoiho/internal/qlog"
)

// FuzzHandlePacket runs arbitrary frames through the handler over both
// transports. The handler must not panic (it is called below the
// recover HandlePacket adds). A reply must decode or be a 12-byte
// header-only frame, echo the query's ID, and set TC only when records
// were dropped: the TCP reply to the same frame must hold more answer
// and authority records. Packing the reply into a buffer dirtied by a
// longer one, bare or behind a TCP length prefix as the serve loops
// pack it, must give HandlePacket's bytes. dnswire's golden frames and
// a few well-formed queries seed it.
func FuzzHandlePacket(f *testing.F) {
	for _, fr := range goldenFrames(f) {
		f.Add(fr.pkt)
	}
	long := strings.Repeat(strings.Repeat("a", 63)+".", 3) + "he.net."
	for _, m := range []*dnswire.Message{
		q(locatedName, dnswire.TypeTXT),
		q(locatedName, dnswire.TypeANY),
		q(unlocatedName, dnswire.TypePTR),
		q(long, dnswire.TypeLOC),
	} {
		pkt, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pkt)
		m.EDNS = nil
		if pkt, err = m.Pack(); err != nil {
			f.Fatal(err)
		}
		f.Add(pkt)
	}
	s := testServer(f)
	junk := bytes.Repeat([]byte{0xC0, 0x0C, 0xFF}, (dnswire.MaxMessageLen+2)/3+1)
	dirty := make([]byte, len(junk))
	f.Fuzz(func(t *testing.T, pkt []byte) {
		replies := [2][]byte{}
		for i, tcp := range []bool{false, true} {
			var qr qlog.Record
			reply, _ := s.handle(nil, pkt, testSrc, tcp, &qr)
			want := s.HandlePacket(pkt, testSrc, tcp)
			if !bytes.Equal(reply, want) {
				t.Fatalf("tcp %v: handle and HandlePacket disagree:\n %x\n %x", tcp, reply, want)
			}
			for _, prefix := range [][]byte{nil, {0, 0}} {
				copy(dirty, junk)
				got := s.appendReply(append(dirty[:0], prefix...), pkt, testSrc, tcp)
				if !bytes.Equal(got[len(prefix):], want) {
					t.Fatalf("tcp %v, %d-byte prefix: reply packed into a dirty buffer differs:\n %x\nwant %x",
						tcp, len(prefix), got[len(prefix):], want)
				}
			}
			if want == nil {
				continue
			}
			if !bytes.Equal(want[:2], pkt[:2]) {
				t.Fatalf("tcp %v: reply ID %x, query ID %x", tcp, want[:2], pkt[:2])
			}
			if _, err := dnswire.Unpack(want); err != nil && len(want) != 12 {
				t.Fatalf("tcp %v: %d-byte reply does not decode: %v", tcp, len(want), err)
			}
			replies[i] = want
		}
		udp, err := dnswire.Unpack(replies[0])
		if err != nil || !udp.Truncated {
			return
		}
		full, err := dnswire.Unpack(replies[1])
		if err != nil {
			t.Fatalf("UDP reply has TC set, TCP reply does not decode: %v", err)
		}
		if len(full.Answers)+len(full.Authority) <= len(udp.Answers)+len(udp.Authority) {
			t.Fatalf("UDP reply has TC set with %d records, TCP reply has %d",
				len(udp.Answers)+len(udp.Authority), len(full.Answers)+len(full.Authority))
		}
	})
}
