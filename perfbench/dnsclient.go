package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hoiho/internal/dnswire"
)

// DNS queries are prebuilt frames with the ID patched in per send; a
// reply is checked by its ID, then by comparing every byte after the ID
// with the hostname's verified reply: the first one seen in the run,
// which was decoded and checked against the reference.

// dnsQueries prebuilds one TXT query frame per hostname, ID zero.
func dnsQueries(hosts []string) ([][]byte, error) {
	out := make([][]byte, len(hosts))
	for i, h := range hosts {
		q := &dnswire.Message{
			RecursionDesired: true,
			Questions:        []dnswire.Question{{Name: h, Type: dnswire.TypeTXT, Class: dnswire.ClassINET}},
		}
		b, err := q.Pack()
		if err != nil {
			return nil, fmt.Errorf("pack query for %s: %w", h, err)
		}
		out[i] = b
	}
	return out, nil
}

// dnsVerifier checks the replies of every connection to one front, as
// httpVerifier checks answers: decoded once, byte-compared after.
type dnsVerifier struct {
	hosts []string
	ref   []answer
	seen  []atomic.Pointer[verified] // body holds the reply bytes after the ID
}

func newDNSVerifier(hosts []string, ref []answer) *dnsVerifier {
	return &dnsVerifier{hosts: hosts, ref: ref, seen: make([]atomic.Pointer[verified], len(hosts))}
}

// check verifies a reply to a query for host id sent with ID qid.
func (v *dnsVerifier) check(id int, qid uint16, reply []byte) (*verified, bool) {
	if len(reply) < 12 || binary.BigEndian.Uint16(reply) != qid {
		return nil, false
	}
	if s := v.seen[id].Load(); s != nil && bytes.Equal(s.body, reply[2:]) {
		return s, true
	}
	m, err := dnswire.Unpack(reply)
	if err != nil || !m.Response || len(m.Questions) != 1 || strings.TrimSuffix(m.Questions[0].Name, ".") != v.hosts[id] {
		return nil, false
	}
	a := &v.ref[id]
	s := &verified{body: bytes.Clone(reply[2:])}
	switch {
	case !a.located:
		if m.RCode != dnswire.RCodeNXDomain || len(m.Answers) != 0 {
			return nil, false
		}
	case m.RCode != dnswire.RCodeNoError || len(m.Answers) != 1:
		return nil, false
	default:
		txt, ok := m.Answers[0].Data.(dnswire.TXT)
		if !ok || !slices.Equal(txt, a.txt) {
			return nil, false
		}
		s.located = true
		s.lat, s.long = txtPosition(txt)
	}
	v.seen[id].Store(s)
	return s, true
}

// txtPosition reads the lat= and long= strings of a TXT answer.
func txtPosition(txt []string) (lat, long float64) {
	for _, s := range txt {
		if v, ok := strings.CutPrefix(s, "lat="); ok {
			lat, _ = strconv.ParseFloat(v, 64)
		}
		if v, ok := strings.CutPrefix(s, "long="); ok {
			long, _ = strconv.ParseFloat(v, 64)
		}
	}
	return lat, long
}

// dnsFront drives geodns.
type dnsFront struct {
	addr    string
	hosts   []string
	ref     []answer
	queries [][]byte
	verify  *dnsVerifier
}

// udpConn is one connected UDP socket with one query in flight.
type udpConn struct {
	c    *net.UDPConn
	sbuf []byte
	rbuf []byte
	id   uint16
}

func dialUDP(addr string) (*udpConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	return &udpConn{c: c, rbuf: make([]byte, 65536)}, nil
}

func (u *udpConn) close() error { return u.c.Close() }

// exchange sends one query and waits for the reply with its ID. A
// reply that never comes is a lost query: the op fails, the socket
// stays usable.
func (u *udpConn) exchange(query []byte) (uint16, []byte, error) {
	u.id++
	u.sbuf = append(u.sbuf[:0], query...)
	binary.BigEndian.PutUint16(u.sbuf, u.id)
	if err := u.c.SetDeadline(time.Now().Add(time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := u.c.Write(u.sbuf); err != nil {
		return 0, nil, err
	}
	for {
		n, err := u.c.Read(u.rbuf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return u.id, nil, nil
			}
			return 0, nil, err
		}
		// A late reply to an earlier, timed-out query is skipped.
		if n >= 2 && binary.BigEndian.Uint16(u.rbuf) == u.id {
			return u.id, u.rbuf[:n], nil
		}
	}
}

// udpOp returns the operation of the UDP phase on one socket: one
// query in flight.
func (f *dnsFront) udpOp(u *udpConn) func(id int) (int, bool, error) {
	v := f.verify
	return func(id int) (int, bool, error) {
		qid, reply, err := u.exchange(f.queries[id])
		if err != nil {
			return 0, false, err
		}
		_, ok := v.check(id, qid, reply)
		return 1, ok, nil
	}
}

// tcpConn is one DNS-over-TCP connection sending pipelined bursts.
type tcpConn struct {
	c    net.Conn
	wbuf []byte
	rbuf []byte
	id   uint16
}

func dialTCP(addr string) (*tcpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: c, rbuf: make([]byte, 65536)}, nil
}

func (t *tcpConn) close() error { return t.c.Close() }

// burst writes one length-prefixed query per host id in a single write,
// then reads the replies, which geodns sends in order, and checks each.
func (t *tcpConn) burst(queries [][]byte, ids []int, check func(i int, qid uint16, reply []byte) bool) (bool, error) {
	if err := t.c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return false, err
	}
	t.wbuf = t.wbuf[:0]
	first := t.id + 1
	for _, id := range ids {
		t.id++
		q := queries[id]
		t.wbuf = binary.BigEndian.AppendUint16(t.wbuf, uint16(len(q)))
		off := len(t.wbuf)
		t.wbuf = append(t.wbuf, q...)
		binary.BigEndian.PutUint16(t.wbuf[off:], t.id)
	}
	if _, err := t.c.Write(t.wbuf); err != nil {
		return false, err
	}
	ok := true
	var lenbuf [2]byte
	for i := range ids {
		if _, err := io.ReadFull(t.c, lenbuf[:]); err != nil {
			return false, err
		}
		frame := t.rbuf[:binary.BigEndian.Uint16(lenbuf[:])]
		if _, err := io.ReadFull(t.c, frame); err != nil {
			return false, err
		}
		if !check(i, first+uint16(i), frame) {
			ok = false
		}
	}
	return ok, nil
}

// tcpWorker sends bursts of batchSize pipelined queries.
func (f *dnsFront) tcpWorker(t *tcpConn, st *stream) worker {
	v := f.verify
	ids := make([]int, batchSize)
	check := func(i int, qid uint16, reply []byte) bool {
		_, ok := v.check(ids[i], qid, reply)
		return ok
	}
	return func() (int, bool, error) {
		for i := range ids {
			ids[i] = st.next()
		}
		ok, err := t.burst(f.queries, ids, check)
		return len(ids), ok, err
	}
}

// scoreAll asks for every hostname once over TCP bursts, checks every
// answer and scores the hint-bearing ones.
func (f *dnsFront) scoreAll(score *hintScore) (attempted, failed int64, err error) {
	t, err := dialTCP(f.addr)
	if err != nil {
		return 0, 0, err
	}
	defer closeInto(t, &err)
	v := f.verify
	for lo := 0; lo < len(f.hosts); lo += batchSize {
		ids := make([]int, 0, batchSize)
		for id := lo; id < min(lo+batchSize, len(f.hosts)); id++ {
			ids = append(ids, id)
		}
		ok, err := t.burst(f.queries, ids, func(i int, qid uint16, reply []byte) bool {
			s, ok := v.check(ids[i], qid, reply)
			if ok {
				score.add(s.located, s.lat, s.long, &f.ref[ids[i]])
			}
			return ok
		})
		attempted++
		if err != nil {
			return attempted, failed + 1, err
		}
		if !ok {
			failed++
		}
	}
	return attempted, failed, nil
}

// probe sends one verified UDP query; the cold-start clock stops on it.
func (f *dnsFront) probe(id int) (err error) {
	u, err := dialUDP(f.addr)
	if err != nil {
		return err
	}
	defer closeInto(u, &err)
	qid, reply, err := u.exchange(f.queries[id])
	if err != nil {
		return err
	}
	if _, ok := f.verify.check(id, qid, reply); !ok {
		return fmt.Errorf("%w for %s", errWrongAnswer, f.hosts[id])
	}
	return nil
}
