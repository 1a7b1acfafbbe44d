package dnsserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/dnswire"
	"hoiho/internal/geodict"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
	"hoiho/internal/psl"
)

// testConventions matches the geoserve test fixture: a dictionary IATA
// convention for he.net plus a stage-4 learned overlay for "ash".
const testConventions = `# test conventions
suffix he.net good tp=16 fp=0 fn=0 unk=0 hints=5
regex iata hint ^.+\.core\d+\.([a-z]{3})\d+\.he\.net$
learned iata ash 39.0437 -77.4875 ashburn|va|us tp=4 fp=0 collide=false
`

const (
	locatedName   = "xe-1.core9.ash1.he.net."
	unlocatedName = "nothing.example.com."
)

func testIndex(t testing.TB) *geoloc.Index {
	t.Helper()
	res, err := core.ReadConventions(strings.NewReader(testConventions))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := geoloc.New(res, geoloc.Options{
		Dict: geodict.MustDefault(), PSL: psl.MustDefault(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func testServer(t testing.TB) *Server {
	t.Helper()
	return New(testIndex(t), Config{Tracer: obs.New(obs.Options{})})
}

var testSrc = netip.MustParseAddr("192.0.2.1")

// q builds a one-question query with EDNS.
func q(name string, typ dnswire.Type) *dnswire.Message {
	return &dnswire.Message{
		ID:               0x4242,
		RecursionDesired: true,
		Questions:        []dnswire.Question{{Name: name, Type: typ, Class: dnswire.ClassINET}},
		EDNS:             &dnswire.EDNS{UDPSize: 1232},
	}
}

// ask packs the query, runs it through the handler, and decodes the
// response.
func ask(t *testing.T, s *Server, m *dnswire.Message) *dnswire.Message {
	t.Helper()
	pkt, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	resp := s.HandlePacket(pkt, testSrc, false)
	if resp == nil {
		t.Fatal("no response")
	}
	r, err := dnswire.Unpack(resp)
	if err != nil {
		t.Fatalf("response does not decode: %v", err)
	}
	return r
}

// TestRCodeMapping pins the query-validation policy: each malformed or
// unsupported query shape maps to the same taxonomy the /v1 error
// envelope uses on the HTTP side.
func TestRCodeMapping(t *testing.T) {
	s := testServer(t)
	multi := q(locatedName, dnswire.TypeTXT)
	multi.Questions = append(multi.Questions, multi.Questions[0])
	notify := q(locatedName, dnswire.TypeTXT)
	notify.Opcode = dnswire.OpcodeNotify
	chaos := q(locatedName, dnswire.TypeTXT)
	chaos.Questions[0].Class = dnswire.Class(3)
	badvers := q(locatedName, dnswire.TypeTXT)
	badvers.EDNS.Version = 1

	cases := []struct {
		name string
		m    *dnswire.Message
		want dnswire.RCode
	}{
		{"located", q(locatedName, dnswire.TypeTXT), dnswire.RCodeNoError},
		{"miss", q(unlocatedName, dnswire.TypeTXT), dnswire.RCodeNXDomain},
		{"two questions", multi, dnswire.RCodeFormErr},
		{"notify opcode", notify, dnswire.RCodeNotImp},
		{"chaos class", chaos, dnswire.RCodeNotImp},
		{"edns version 1", badvers, dnswire.RCodeBadVers},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := ask(t, s, tc.m)
			if r.RCode != tc.want {
				t.Errorf("rcode = %v, want %v", r.RCode, tc.want)
			}
			if !r.Response || r.ID != tc.m.ID {
				t.Errorf("response header not echoed: %+v", r)
			}
			if tc.want == dnswire.RCodeNXDomain && !r.Authoritative {
				t.Error("NXDOMAIN must be authoritative")
			}
		})
	}
}

// TestUnparseablePacket covers the pre-parse paths: garbage gets a
// header-only FORMERR, a stub too short to echo gets nothing, and an
// inbound response message is dropped.
func TestUnparseablePacket(t *testing.T) {
	s := testServer(t)
	resp := s.HandlePacket([]byte{0xAB, 0xCD, 0x01, 0x00, 0xFF}, testSrc, false)
	if len(resp) != 12 {
		t.Fatalf("FORMERR reply length = %d, want 12", len(resp))
	}
	r, err := dnswire.Unpack(resp)
	if err != nil {
		t.Fatal(err)
	}
	if r.RCode != dnswire.RCodeFormErr || !r.Response || r.ID != 0xABCD {
		t.Errorf("reply = %+v", r)
	}
	if got := s.HandlePacket([]byte{0xAB}, testSrc, false); got != nil {
		t.Errorf("sub-header frame got a %d-byte reply", len(got))
	}
	pong, err := q(locatedName, dnswire.TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}
	pong[2] |= 0x80 // QR: make it a response
	if got := s.HandlePacket(pong, testSrc, false); got != nil {
		t.Error("inbound response message must be dropped, not answered")
	}
}

// TestAnswers checks each record type against the index the handler
// serves from, so the DNS answers can never drift from Lookup.
func TestAnswers(t *testing.T) {
	s := testServer(t)
	g, ok := testIndex(t).Lookup(locatedName)
	if !ok {
		t.Fatal("fixture hostname does not locate")
	}

	r := ask(t, s, q(locatedName, dnswire.TypeTXT))
	if len(r.Answers) != 1 {
		t.Fatalf("TXT answers = %d, want 1", len(r.Answers))
	}
	txt, ok := r.Answers[0].Data.(dnswire.TXT)
	if !ok {
		t.Fatalf("answer is %T, want TXT", r.Answers[0].Data)
	}
	if want := geoloc.AnswerStrings(g); !reflect.DeepEqual([]string(txt), want) {
		t.Errorf("TXT = %v, want %v", txt, want)
	}
	if r.Answers[0].Name != locatedName || r.Answers[0].TTL != 300 {
		t.Errorf("answer RR = %+v", r.Answers[0])
	}

	r = ask(t, s, q(locatedName, dnswire.TypePTR))
	ptr, ok := r.Answers[0].Data.(dnswire.PTR)
	if !ok || string(ptr) != geoloc.PTRTarget(g) {
		t.Errorf("PTR = %v, want %q", r.Answers[0].Data, geoloc.PTRTarget(g))
	}

	r = ask(t, s, q(locatedName, dnswire.TypeLOC))
	loc, ok := r.Answers[0].Data.(dnswire.LOC)
	if !ok {
		t.Fatalf("answer is %T, want LOC", r.Answers[0].Data)
	}
	lat, long := loc.LatLong()
	if dLat, dLong := lat-g.Loc.Pos.Lat, long-g.Loc.Pos.Long; dLat > 1e-6 || dLat < -1e-6 || dLong > 1e-6 || dLong < -1e-6 {
		t.Errorf("LOC = (%v, %v), want (%v, %v)", lat, long, g.Loc.Pos.Lat, g.Loc.Pos.Long)
	}

	r = ask(t, s, q(locatedName, dnswire.TypeANY))
	if len(r.Answers) != 3 {
		t.Errorf("ANY answers = %d, want 3 (TXT, PTR, LOC)", len(r.Answers))
	}

	// A located name asked a type geodns does not serve: NODATA, the
	// authoritative empty NOERROR.
	r = ask(t, s, q(locatedName, dnswire.TypeA))
	if r.RCode != dnswire.RCodeNoError || len(r.Answers) != 0 || !r.Authoritative {
		t.Errorf("NODATA response = %+v", r)
	}
}

// TestMalformedCorpusNoPanic replays the dnswire golden corpus — every
// hand-corrupted frame included — through the full handler. The
// assertion is the absence of a panic plus a well-formed verdict:
// either silence or a frame that decodes.
func TestMalformedCorpusNoPanic(t *testing.T) {
	s := testServer(t)
	files, err := filepath.Glob(filepath.Join("..", "dnswire", "testdata", "frames", "*.hex"))
	if err != nil || len(files) == 0 {
		t.Fatalf("golden corpus not found: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".hex")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, line := range strings.Split(string(raw), "\n") {
				if i := strings.IndexByte(line, '#'); i >= 0 {
					line = line[:i]
				}
				sb.WriteString(strings.Join(strings.Fields(line), ""))
			}
			pkt, err := hex.DecodeString(sb.String())
			if err != nil {
				t.Fatal(err)
			}
			resp := s.HandlePacket(pkt, testSrc, false)
			if resp == nil {
				return // dropped: fine for sub-header or response frames
			}
			if _, err := dnswire.Unpack(resp); err != nil {
				t.Errorf("handler emitted an undecodable reply: %v", err)
			}
		})
	}
}

// TestUDPTruncation drives a response past a tiny negotiated payload
// size and checks the TC contract: the reply fits, TC is set, and the
// same query over TCP returns the full answer set.
func TestUDPTruncation(t *testing.T) {
	s := testServer(t)
	m := q(locatedName, dnswire.TypeANY)
	m.EDNS.UDPSize = 80 // below the 512 floor; the floor must win
	pkt, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	resp := s.HandlePacket(pkt, testSrc, false)
	if len(resp) > 512 {
		t.Errorf("UDP reply = %d bytes, above the 512-byte floor", len(resp))
	}

	// Over TCP the same query is not size-limited.
	tcpResp := s.HandlePacket(pkt, testSrc, true)
	r, err := dnswire.Unpack(tcpResp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Truncated || len(r.Answers) != 3 {
		t.Errorf("TCP reply truncated=%v answers=%d, want full 3", r.Truncated, len(r.Answers))
	}
}

// TestServeUDPAndTCPByteIdentical runs the real serve loops on
// loopback and asserts the two transports return byte-identical
// frames for the same query.
func TestServeUDPAndTCPByteIdentical(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())

	uconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 2)
	go func() { _ = s.ServeUDP(ctx, uconn); done <- struct{}{} }()
	go func() { _ = s.ServeTCP(ctx, ln); done <- struct{}{} }()
	defer func() {
		cancel()
		<-done
		<-done
		if err := uconn.Close(); err != nil {
			t.Error(err)
		}
		if err := ln.Close(); err != nil {
			t.Error(err)
		}
	}()

	pkt, err := q(locatedName, dnswire.TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}

	udpResp := exchangeUDP(t, uconn.LocalAddr().String(), pkt)
	tcpResp := exchangeTCP(t, ln.Addr().String(), pkt)
	if !bytes.Equal(udpResp, tcpResp) {
		t.Errorf("transports disagree:\n udp %x\n tcp %x", udpResp, tcpResp)
	}
	r, err := dnswire.Unpack(udpResp)
	if err != nil {
		t.Fatal(err)
	}
	if r.RCode != dnswire.RCodeNoError || len(r.Answers) != 1 {
		t.Errorf("served answer = %+v", r)
	}
}

func exchangeUDP(t *testing.T, addr string, pkt []byte) []byte {
	t.Helper()
	c, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(pkt); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65536)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

func exchangeTCP(t *testing.T, addr string, pkt []byte) []byte {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return roundTripTCP(t, c, pkt)
}

// roundTripTCP sends one length-prefixed frame on c and reads the
// reply frame.
func roundTripTCP(t *testing.T, c net.Conn, pkt []byte) []byte {
	t.Helper()
	var lenbuf [2]byte
	binary.BigEndian.PutUint16(lenbuf[:], uint16(len(pkt)))
	if _, err := c.Write(append(lenbuf[:], pkt...)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, lenbuf[:]); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, binary.BigEndian.Uint16(lenbuf[:]))
	if _, err := io.ReadFull(c, resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeTCPFrameReuse sends a long query and then a short one on
// one TCP connection. The connection reuses one frame buffer, which
// must hand each frame to the handler at its own length: both replies
// must equal HandlePacket's reply to the same frame.
func TestServeTCPFrameReuse(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeTCP(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
		if err := ln.Close(); err != nil {
			t.Error(err)
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat(strings.Repeat("a", 63)+".", 3) + "he.net."
	for _, name := range []string{long, locatedName} {
		pkt, err := q(name, dnswire.TypeTXT).Pack()
		if err != nil {
			t.Fatal(err)
		}
		got := roundTripTCP(t, c, pkt)
		if want := s.HandlePacket(pkt, testSrc, true); !bytes.Equal(got, want) {
			t.Errorf("%d-byte query: served reply differs from HandlePacket's:\n got %x\nwant %x",
				len(pkt), got, want)
		}
	}
}

// TestStats checks the counter plumbing end to end: handled queries
// show up in Stats by outcome.
func TestStats(t *testing.T) {
	s := testServer(t)
	ask(t, s, q(locatedName, dnswire.TypeTXT))
	ask(t, s, q(unlocatedName, dnswire.TypeTXT))
	got := s.Stats()
	if got["queries"] != 2 || got["noerror"] != 1 || got["nxdomain"] != 1 {
		t.Errorf("Stats = %v", got)
	}
}

// TestStatsNilTracer: the query counters live on the Server, so Stats
// works without a tracer.
func TestStatsNilTracer(t *testing.T) {
	s := New(testIndex(t), Config{})
	ask(t, s, q(locatedName, dnswire.TypeTXT))
	got := s.Stats()
	if got["queries"] != 1 || got["noerror"] != 1 || len(got) != 2 {
		t.Errorf("Stats = %v, want queries=1 noerror=1", got)
	}
}

// TestStatsConcurrent reads Stats while several goroutines handle
// queries; run under -race it proves the counters are safe to share.
// No snapshot may run backwards or past the final total, and the final
// counts must be exact.
func TestStatsConcurrent(t *testing.T) {
	s := testServer(t)
	pkt, err := q(locatedName, dnswire.TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 200
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := s.Stats()["queries"]
			if n < last || n > writers*perWriter {
				t.Errorf("queries snapshot %d after %d (final total %d)", n, last, writers*perWriter)
				return
			}
			last = n
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				s.HandlePacket(pkt, testSrc, false)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	got := s.Stats()
	if got["queries"] != writers*perWriter || got["noerror"] != writers*perWriter {
		t.Errorf("Stats = %v, want %d queries, all noerror", got, writers*perWriter)
	}
}
