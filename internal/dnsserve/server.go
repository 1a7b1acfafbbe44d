package dnsserve

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/dnswire"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
	"hoiho/internal/promexp"
	"hoiho/internal/qlog"
)

// Wire limits, the TCP idle timeout and the cap on open TCP
// connections.
const (
	minUDPSize     = 512              // RFC 1035 limit without EDNS, and the floor with it
	defaultUDPSize = 1232             // fits any unfragmented path, EDNS default
	tcpIdleTimeout = 10 * time.Second // deadline on a TCP read that may block
	maxTCPConns    = 256              // open connections per listener; past it, accept and close
)

// Config tunes a Server. The zero value serves with defaults: TTL 300,
// UDP payload 1232, rate limiting off.
type Config struct {
	// TTL is the time-to-live stamped on every answer record.
	TTL uint32
	// UDPSize is the largest UDP payload the server is willing to
	// send; the effective limit per query also honors what the client
	// advertised (never below the 512-byte RFC 1035 floor).
	UDPSize uint16
	// Rate and Burst meter queries per source address: Rate tokens per
	// second with Burst headroom. Rate 0 disables limiting.
	Rate  float64
	Burst float64
	// Deprecated: Tracer is ignored; the server opens no spans. It
	// remains only so that callers which still set it compile.
	Tracer *obs.Tracer
	// QueryLog, when non-nil, receives one sampled JSONL record per
	// handled packet. Nil (the zero value) disables logging at zero
	// cost.
	QueryLog *qlog.Logger
}

// outcome is the verdict HandlePacket reaches for one packet, decided
// once: it names the counter the packet increments, the query-log
// outcome, and the rcode of the reply.
type outcome uint8

const (
	noerror outcome = iota
	nodata          // located name, unsupported type
	nxdomain
	formerr
	notimp
	badvers
	refused
	servfail
	dropped // an inbound response message: no reply
	numOutcomes
)

var outcomes = [numOutcomes]struct {
	name  string
	rcode dnswire.RCode
}{
	noerror:  {"noerror", dnswire.RCodeNoError},
	nodata:   {"nodata", dnswire.RCodeNoError},
	nxdomain: {"nxdomain", dnswire.RCodeNXDomain},
	formerr:  {"formerr", dnswire.RCodeFormErr},
	notimp:   {"notimp", dnswire.RCodeNotImp},
	badvers:  {"badvers", dnswire.RCodeBadVers},
	refused:  {"refused", dnswire.RCodeRefused},
	servfail: {"servfail", dnswire.RCodeServFail},
	dropped:  {"dropped", dnswire.RCodeNoError},
}

// Server answers DNS queries about router hostnames from a live geoloc
// index. One Server may serve UDP and TCP concurrently; every packet
// is handled against a single index generation even while a reload
// swaps a new one in.
type Server struct {
	cfg     Config
	live    *geoloc.Live
	limiter *limiter
	qlog    *qlog.Logger
	// opt is the OPT record of every reply to an EDNS query. The
	// packer only reads it, so all replies share it.
	opt dnswire.EDNS

	// Query counters: every handled packet, each by its outcome, TCP
	// connections that failed to close, and TCP connections closed
	// unserved because maxTCPConns were open.
	queries     atomic.Int64
	byOutcome   [numOutcomes]atomic.Int64
	closeErrors atomic.Int64
	tcpRefused  atomic.Int64

	// udpSizes is the negotiated UDP response limit of each query, in
	// bytes; TCP queries carry none and are not observed.
	udpSizes *promexp.Histogram
}

// New builds a Server over the given index.
func New(ix *geoloc.Index, cfg Config) *Server {
	if cfg.TTL == 0 {
		cfg.TTL = 300
	}
	if cfg.UDPSize == 0 {
		cfg.UDPSize = defaultUDPSize
	}
	if cfg.UDPSize < minUDPSize {
		cfg.UDPSize = minUDPSize
	}
	return &Server{
		cfg:     cfg,
		live:    geoloc.NewLive(ix),
		limiter: newLimiter(cfg.Rate, cfg.Burst),
		qlog:    cfg.QueryLog,
		opt:     dnswire.EDNS{UDPSize: cfg.UDPSize},
		// Bands at the RFC 1035 floor, the unfragmented-path EDNS
		// default, and a large advertisement; sizes above fall in +Inf.
		udpSizes: promexp.NewHistogram(1, minUDPSize, defaultUDPSize, 4096),
	}
}

// Live is the serving index holder: reload through it, and read its
// generation and lookup counters.
func (s *Server) Live() *geoloc.Live { return s.live }

// Stats snapshots the query counters: "queries", each outcome seen so
// far by name, "close_errors" once a TCP close has failed, and
// "tcp_refused" once a TCP connection was turned away at the cap.
func (s *Server) Stats() map[string]int64 {
	st := make(map[string]int64, numOutcomes+3)
	put := func(name string, n int64) {
		if n > 0 {
			st[name] = n
		}
	}
	put("queries", s.queries.Load())
	for o := range s.byOutcome {
		put(outcomes[o].name, s.byOutcome[o].Load())
	}
	put("close_errors", s.closeErrors.Load())
	put("tcp_refused", s.tcpRefused.Load())
	return st
}

// LimiterEvictions reports buckets dropped by capacity sweeps; zero
// when rate limiting is disabled.
func (s *Server) LimiterEvictions() uint64 { return s.limiter.evictions() }

// UDPSizes is the histogram of negotiated UDP response limits, in
// bytes.
func (s *Server) UDPSizes() *promexp.Histogram { return s.udpSizes }

// HandlePacket answers one DNS message and returns the response frame,
// or nil when the input merits no reply (a frame too short to echo, or
// an inbound response message). src meters the rate limit; tcp lifts
// the UDP size limit. It never panics: a handler bug maps to SERVFAIL,
// mirroring the HTTP front end's 500 envelope.
func (s *Server) HandlePacket(pkt []byte, src netip.Addr, tcp bool) []byte {
	return s.appendReply(nil, pkt, src, tcp)
}

// appendReply is HandlePacket appending the response frame to b, which
// it returns unchanged when the input merits no reply. The serve loops
// pack every reply into one buffer of their own this way. Nothing the
// handler keeps aliases pkt or b, so the caller may reuse both as soon
// as it returns.
func (s *Server) appendReply(b, pkt []byte, src netip.Addr, tcp bool) (out []byte) {
	s.queries.Add(1)
	// Only a query the log keeps gets a record; for the rest (and with
	// logging off) NextID returns "" and nothing allocates. The deferred
	// function also converts panics to SERVFAIL, so a crashed handler
	// still counts and logs its query.
	var qr qlog.Record
	var t0 time.Time
	if id := s.qlog.NextID(); id != "" {
		qr = qlog.Record{Front: "dns", ID: id}
		if src.IsValid() {
			qr.Source = src.String()
		}
		t0 = time.Now()
	}
	var oc outcome
	defer func() {
		if recover() != nil {
			oc = servfail
			out = appendRawReply(b, pkt, dnswire.RCodeServFail)
		}
		s.byOutcome[oc].Add(1)
		if qr.ID != "" {
			qr.Status = int(outcomes[oc].rcode)
			qr.Outcome = outcomes[oc].name
			qr.DurUS = int64(time.Since(t0) / time.Microsecond)
			qr.Generation = s.live.Generation()
			s.qlog.Log(qr)
		}
	}()
	out, oc = s.handle(b, pkt, src, tcp, &qr)
	return out
}

// handle decides a packet's outcome and appends its reply to b. With a
// query-log record to fill (qr.ID set), it notes the question there.
func (s *Server) handle(b, pkt []byte, src netip.Addr, tcp bool, qr *qlog.Record) ([]byte, outcome) {
	// Rate limiting happens before parsing: shedding load must not
	// cost a message decode per flooded packet.
	if !s.limiter.allow(src) {
		return appendRawReply(b, pkt, dnswire.RCodeRefused), refused
	}
	q, err := dnswire.Unpack(pkt)
	if err != nil {
		return appendRawReply(b, pkt, dnswire.RCodeFormErr), formerr
	}
	if q.Response {
		return b, dropped // a response sent at a server is noise, not a query
	}
	if qr.ID != "" && len(q.Questions) > 0 {
		qr.Hostname = q.Questions[0].Name
		qr.Op = q.Questions[0].Type.String()
	}

	r := dnswire.Reply(q)
	r.Authoritative = true
	if q.EDNS != nil {
		r.EDNS = &s.opt
	}
	var oc outcome
	switch {
	case q.Opcode != dnswire.OpcodeQuery:
		oc = notimp
	case q.EDNS != nil && q.EDNS.Version > 0:
		oc = badvers
	case len(q.Questions) != 1:
		oc = formerr
	case q.Questions[0].Class != dnswire.ClassINET && q.Questions[0].Class != dnswire.ClassANY:
		oc = notimp
	default:
		oc = s.answer(r, q.Questions[0])
	}
	r.RCode = outcomes[oc].rcode

	limit := dnswire.MaxMessageLen
	if !tcp {
		limit = s.udpLimit(q)
		s.udpSizes.Observe(int64(limit))
	}
	out, err := r.AppendTruncated(b, limit)
	if err != nil {
		// The question alone does not fit the negotiated size; answer
		// with a header-only SERVFAIL rather than silence.
		return appendRawReply(b, pkt, dnswire.RCodeServFail), servfail
	}
	return out, oc
}

// udpLimit negotiates the response size. A query without EDNS gets
// the 512 bytes RFC 1035 §4.2.1 allows; one with EDNS the smaller of
// what the client advertised and what the server allows, never below
// 512.
func (s *Server) udpLimit(q *dnswire.Message) int {
	if q.EDNS == nil {
		return minUDPSize
	}
	limit := min(int(s.cfg.UDPSize), int(q.EDNS.UDPSize))
	return max(limit, minUDPSize)
}

// answer resolves one question against the live index and fills the
// response: TXT carries the key=value geolocation detail, PTR a
// location-encoding target name, LOC the coordinates, ANY all of
// them. A located name asked an unsupported type gets an empty
// authoritative NOERROR (nodata); an unlocated name gets NXDOMAIN.
func (s *Server) answer(r *dnswire.Message, question dnswire.Question) outcome {
	g, ok := s.live.Index().Lookup(question.Name)
	if !ok || g.Loc == nil {
		return nxdomain
	}
	wantAll := question.Type == dnswire.TypeANY
	add := func(data dnswire.RData) {
		r.Answers = append(r.Answers, dnswire.RR{
			Name:  question.Name,
			Class: dnswire.ClassINET,
			TTL:   s.cfg.TTL,
			Data:  data,
		})
	}
	if wantAll || question.Type == dnswire.TypeTXT {
		add(txtAnswer{g})
	}
	if wantAll || question.Type == dnswire.TypePTR {
		add(dnswire.PTR(geoloc.PTRTarget(g)))
	}
	if (wantAll || question.Type == dnswire.TypeLOC) && g.Loc.Pos.Valid() {
		add(dnswire.NewLOC(g.Loc.Pos.Lat, g.Loc.Pos.Long))
	}
	if len(r.Answers) == 0 {
		return nodata
	}
	return noerror
}

// txtAnswer is the TXT payload of a located answer. It packs itself
// straight into the reply through geoloc.AppendTXT, the character-
// strings of geoloc.AnswerStrings, and decodes as dnswire.TXT. One
// pointer wide, it goes into a dnswire.RData without an allocation.
type txtAnswer struct{ g *core.Geolocation }

// Type implements dnswire.RData.
func (txtAnswer) Type() dnswire.Type { return dnswire.TypeTXT }

// AppendRData implements dnswire.RDataAppender. A field over 255 bytes
// fails the pack, and the query gets SERVFAIL.
func (t txtAnswer) AppendRData(b []byte) ([]byte, error) { return geoloc.AppendTXT(b, t.g) }

// appendRawReply appends a header-only response built from the raw
// bytes of a request that may not parse: ID echoed, QR set, opcode and
// RD bits carried over, all counts zero. Frames too short to even echo
// an ID get no reply at all: b comes back unchanged.
func appendRawReply(b, pkt []byte, rcode dnswire.RCode) []byte {
	if len(pkt) < 4 {
		return b
	}
	return append(b,
		pkt[0], pkt[1], // ID
		0x80|pkt[2]&0x79, // QR | opcode | RD
		byte(rcode&0xF),
		0, 0, 0, 0, 0, 0, 0, 0) // counts
}

// past is a deadline that has expired: setting it makes a blocked read
// or accept return at once.
var past = time.Unix(1, 0)

// wakeOnCancel moves a socket's deadline into the past, through set,
// once ctx is canceled, so that a serve loop blocked on the socket
// returns without polling. Call the returned function when done with
// the socket: it unhooks ctx and, if ctx was canceled, reports whether
// the deadline was set. The error, if any, only says the socket was
// already closed, so nothing could block on it anyway.
func wakeOnCancel(ctx context.Context, set func(time.Time) error) (done func() error) {
	errc := make(chan error, 1)
	stop := context.AfterFunc(ctx, func() { errc <- set(past) })
	return func() error {
		if stop() {
			return nil // ctx was not canceled; nothing was set
		}
		return <-errc
	}
}

// ServeUDP answers queries on conn until ctx is canceled. Packets are
// handled inline — a lookup is microseconds, so per-packet goroutines
// would cost more than they buy — and every reply is packed into one
// buffer the loop owns.
func (s *Server) ServeUDP(ctx context.Context, conn *net.UDPConn) (err error) {
	done := wakeOnCancel(ctx, conn.SetReadDeadline)
	defer func() {
		if werr := done(); err == nil {
			err = werr
		}
	}()
	buf := make([]byte, 65536)
	var out []byte
	for {
		n, addr, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		out = s.appendReply(out[:0], buf[:n], addr.Addr(), false)
		if len(out) == 0 {
			continue
		}
		if _, err := conn.WriteToUDPAddrPort(out, addr); err != nil && ctx.Err() != nil {
			return nil
		}
	}
}

// ServeTCP answers queries on ln until ctx is canceled, then waits for
// every open connection to flush its replies and close before
// returning. At most maxTCPConns connections are served at once: one
// accepted past that is closed unread and counted as tcp_refused.
func (s *Server) ServeTCP(ctx context.Context, ln *net.TCPListener) (err error) {
	done := wakeOnCancel(ctx, ln.SetDeadline)
	defer func() {
		if werr := done(); err == nil {
			err = werr
		}
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	slots := make(chan struct{}, maxTCPConns)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		select {
		case slots <- struct{}{}:
		default:
			s.tcpRefused.Add(1)
			if err := conn.Close(); err != nil {
				s.closeErrors.Add(1)
			}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(ctx, conn, slots)
		}()
	}
}

// serveConn handles one TCP connection: two-byte length-prefixed
// frames (RFC 1035 §4.2.2) until the peer closes, errs, idles past
// tcpIdleTimeout, or the server shuts down. It reads through a buffer
// and writes replies into another, so a pipelined burst costs a few
// syscalls, not four per query. It flushes the replies only before a
// read that may block — when the reader does not already hold the
// whole next frame — so it never waits on the network with replies
// unsent, and every way out of the loop but a failed write passes a
// flush. With slots non-nil it frees the connection's slot there
// before it closes conn, so a peer that sees the close can connect
// again at once.
func (s *Server) serveConn(ctx context.Context, conn net.Conn, slots chan struct{}) {
	done := wakeOnCancel(ctx, conn.SetReadDeadline)
	defer func() {
		if slots != nil {
			<-slots
		}
		// A failed close on a drained conn is not actionable, but it is
		// countable. A wake deadline that could not be set means the
		// conn was closed already.
		werr := done()
		if err := conn.Close(); err != nil || werr != nil {
			s.closeErrors.Add(1)
		}
	}()
	src := netip.Addr{}
	if ap, err := netip.ParseAddrPort(conn.RemoteAddr().String()); err == nil {
		src = ap.Addr()
	}
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	var lenbuf [2]byte
	// One frame buffer and one reply buffer per connection, grown to
	// the largest seen. Reusing them is safe: nothing HandlePacket
	// returns or keeps aliases the request or the reply bytes, and
	// bw copies each reply.
	var frame, out []byte
	for {
		if !frameBuffered(br) {
			if err := bw.Flush(); err != nil {
				return
			}
			// The idle deadline is armed only here, before a read that
			// may block. ctx is checked after arming it: a cancel that
			// landed before this deadline replaced the past one
			// wakeOnCancel set is seen here, a later one sets it again.
			if err := conn.SetReadDeadline(time.Now().Add(tcpIdleTimeout)); err != nil {
				return
			}
			if ctx.Err() != nil {
				return
			}
		}
		if _, err := io.ReadFull(br, lenbuf[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint16(lenbuf[:]))
		if cap(frame) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		// The reply is packed behind room for its length prefix.
		out = s.appendReply(append(out[:0], 0, 0), frame, src, true)
		if len(out) == 2 {
			continue
		}
		binary.BigEndian.PutUint16(out, uint16(len(out)-2))
		if _, err := bw.Write(out); err != nil {
			return
		}
	}
}

// frameBuffered reports whether br holds a complete length-prefixed
// frame, which can be read without blocking. It peeks only at bytes
// already buffered, so it never reads from the connection itself.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 2 {
		return false
	}
	hdr, err := br.Peek(2)
	if err != nil {
		return false
	}
	return br.Buffered() >= 2+int(binary.BigEndian.Uint16(hdr))
}
