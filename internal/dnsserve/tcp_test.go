package dnsserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hoiho/internal/dnswire"
)

// TestServeTCPShutdownWithIdleClient cancels the server while a client
// holds an idle connection open: ServeTCP must close it and return at
// once, not when the idle deadline expires.
func TestServeTCPShutdownWithIdleClient(t *testing.T) {
	s := testServer(t)
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ln.Close(); err != nil {
			t.Error(err)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.ServeTCP(ctx, ln) }()
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
	pkt, err := q(locatedName, dnswire.TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}
	roundTripTCP(t, c, pkt) // the connection is served, then idles

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeTCP: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("ServeTCP still running 1 s after cancel, with an idle client connected")
	}
	if n, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("idle client read %d bytes, %v; want EOF from the closed connection", n, err)
	}
}

// writeCounter counts the Write calls made on the server's side of a
// connection: one per syscall the replies cost.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// serveOne accepts one connection on a loopback listener and runs
// serveConn on it behind a writeCounter. It returns the client side,
// the counter, and a function that cancels the server and waits for
// serveConn to return.
func serveOne(t *testing.T, s *Server) (net.Conn, *writeCounter, func()) {
	t.Helper()
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ln.Close(); err != nil {
			t.Error(err)
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	wc := &writeCounter{Conn: sc}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.serveConn(ctx, wc, nil)
	}()
	return c, wc, func() {
		cancel()
		<-served
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}
}

// frame prefixes a message with its two-byte TCP length.
func frame(pkt []byte) []byte {
	return append(binary.BigEndian.AppendUint16(nil, uint16(len(pkt))), pkt...)
}

// TestServeTCPPipelinedBurst sends 100 pipelined queries in one write.
// The replies must equal HandlePacket's, in order, and reach the client
// in a few writes — about one per 4 KiB of replies — not two per query.
func TestServeTCPPipelinedBurst(t *testing.T) {
	s := testServer(t)
	long := strings.Repeat(strings.Repeat("a", 63)+".", 3) + "he.net."
	names := []string{locatedName, unlocatedName, long}
	types := []dnswire.Type{dnswire.TypeTXT, dnswire.TypeANY, dnswire.TypePTR, dnswire.TypeA}
	var burst, want []byte
	for i := 0; i < 100; i++ {
		m := q(names[i%len(names)], types[i%len(types)])
		m.ID = uint16(i)
		pkt, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		burst = append(burst, frame(pkt)...)
		want = append(want, frame(s.HandlePacket(pkt, testSrc, true))...)
	}
	c, wc, stop := serveOne(t, s)
	defer stop()
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("burst replies differ from HandlePacket's")
	}
	if n, limit := wc.writes.Load(), int64(len(want)/4096+2); n > limit {
		t.Errorf("%d replies (%d bytes) took %d writes, want at most %d", 100, len(want), n, limit)
	}
}

// TestServeTCPPartialFrame sends a query and the first bytes of the
// next one: the first reply must arrive while the server waits for the
// rest of the second frame.
func TestServeTCPPartialFrame(t *testing.T) {
	s := testServer(t)
	pkt, err := q(locatedName, dnswire.TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}
	want := s.HandlePacket(pkt, testSrc, true)
	c, _, stop := serveOne(t, s)
	defer stop()
	second := frame(pkt)
	if _, err := c.Write(append(frame(pkt), second[:3]...)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2+len(want))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("first reply not sent while the second frame is incomplete: %v", err)
	}
	if !bytes.Equal(got[2:], want) {
		t.Errorf("first reply differs from HandlePacket's")
	}
	if _, err := c.Write(second[3:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[2:], want) {
		t.Errorf("second reply differs from HandlePacket's")
	}
}

// TestServeTCPConnCap holds maxTCPConns idle connections open: the next
// one must be closed unread and counted as tcp_refused. Once one of
// the idle connections has ended, a fresh connection must be served.
func TestServeTCPConnCap(t *testing.T) {
	s := testServer(t)
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ServeTCP(ctx, ln) }()
	var conns []net.Conn
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeTCP: %v", err)
		}
		if err := ln.Close(); err != nil {
			t.Error(err)
		}
		for _, c := range conns {
			if err := c.Close(); err != nil {
				t.Error(err)
			}
		}
	}()
	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// The accept loop takes connections in the order they were made,
	// so the first maxTCPConns hold every slot when the next arrives.
	for range maxTCPConns {
		dial()
	}
	if n, err := dial().Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection past the cap read %d bytes, %v; want EOF", n, err)
	}
	if got := s.Stats()["tcp_refused"]; got != 1 {
		t.Errorf("tcp_refused = %d, want 1", got)
	}

	// Half-close an idle connection and wait for the server to close
	// it: it frees the connection's slot before that.
	idle := conns[0].(*net.TCPConn)
	if err := idle.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if n, err := idle.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("half-closed connection read %d bytes, %v; want EOF", n, err)
	}
	pkt, err := q(locatedName, dnswire.TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := roundTripTCP(t, dial(), pkt), s.HandlePacket(pkt, testSrc, true); !bytes.Equal(got, want) {
		t.Errorf("fresh connection after a slot freed: reply %x, want %x", got, want)
	}
	if got := s.Stats()["tcp_refused"]; got != 1 {
		t.Errorf("tcp_refused = %d after a slot freed, want 1", got)
	}
}
