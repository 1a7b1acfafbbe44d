package dnsserve

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"hoiho/internal/dnswire"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
	"hoiho/internal/qlog"
)

// Wire limits and loop timings. The read deadlines exist so the serve
// loops notice context cancellation; they are polls, not per-client
// timeouts.
const (
	minUDPSize     = 512  // RFC 1035 floor; never negotiate below
	defaultUDPSize = 1232 // fits any unfragmented path, EDNS default
	pollInterval   = 250 * time.Millisecond
	tcpIdleTimeout = 10 * time.Second // per-read deadline on an open TCP conn
)

// queryStage names the span a query the query log keeps records.
const queryStage = "dnsquery"

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
	// Tracer records a span for each query the query log keeps; nil is
	// inert.
	Tracer *obs.Tracer
	// QueryLog, when non-nil, receives one sampled JSONL record per
	// handled packet; its request id is also stamped on the query span.
	// Nil (the zero value) disables logging at zero cost.
	QueryLog *qlog.Logger
}

// ednsBounds are the histogram bands for negotiated UDP response
// limits: the RFC 1035 floor, the unfragmented-path EDNS default, and
// a large-advertisement band; sizes above fall in +Inf. An array, not
// a slice, so the Server's counter block can size itself from it.
var ednsBounds = [3]float64{512, 1232, 4096}

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
	tracer  *obs.Tracer
	qlog    *qlog.Logger

	// Query counters: every handled packet, each by its outcome, and
	// TCP connections that failed to close.
	queries     atomic.Int64
	byOutcome   [numOutcomes]atomic.Int64
	closeErrors atomic.Int64

	// Negotiated UDP response-size histogram: per-band observation
	// counts over ednsBounds (last slot is +Inf) and a byte sum.
	ednsCounts [len(ednsBounds) + 1]atomic.Int64
	ednsSum    atomic.Int64
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
		tracer:  cfg.Tracer,
		qlog:    cfg.QueryLog,
	}
}

// Live is the serving index holder: reload through it, and read its
// generation and lookup counters.
func (s *Server) Live() *geoloc.Live { return s.live }

// Stats snapshots the query counters: "queries", each outcome seen so
// far by name, and "close_errors" once a TCP close has failed.
func (s *Server) Stats() map[string]int64 {
	st := make(map[string]int64, numOutcomes+2)
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
	return st
}

// LimiterEvictions reports buckets dropped by capacity sweeps; zero
// when rate limiting is disabled.
func (s *Server) LimiterEvictions() uint64 { return s.limiter.evictions() }

// EDNSSizes snapshots the negotiated UDP response-size histogram:
// per-band observation counts over bounds (one extra +Inf band at the
// end) and the cumulative byte sum. TCP queries are not observed —
// they carry no negotiated limit.
func (s *Server) EDNSSizes() (bounds []float64, counts []int64, sumBytes int64) {
	counts = make([]int64, len(s.ednsCounts))
	for i := range s.ednsCounts {
		counts[i] = s.ednsCounts[i].Load()
	}
	return ednsBounds[:], counts, s.ednsSum.Load()
}

// observeUDPLimit records one negotiated response limit.
func (s *Server) observeUDPLimit(limit int) {
	band := len(ednsBounds)
	for i, b := range ednsBounds {
		if float64(limit) <= b {
			band = i
			break
		}
	}
	s.ednsCounts[band].Add(1)
	s.ednsSum.Add(int64(limit))
}

// HandlePacket answers one DNS message and returns the response frame,
// or nil when the input merits no reply (a frame too short to echo, or
// an inbound response message). src meters the rate limit; tcp lifts
// the UDP size limit. It never panics: a handler bug maps to SERVFAIL,
// mirroring the HTTP front end's 500 envelope.
func (s *Server) HandlePacket(pkt []byte, src netip.Addr, tcp bool) (out []byte) {
	s.queries.Add(1)
	// Only a query the log keeps gets a record and a span; for the rest
	// (and with logging off) NextID returns "" and nothing allocates.
	// The deferred function also converts panics to SERVFAIL, so a
	// crashed handler still counts and logs its query.
	var qr qlog.Record
	var sp *obs.Span
	var t0 time.Time
	if id := s.qlog.NextID(); id != "" {
		qr = qlog.Record{Front: "dns", ID: id}
		if src.IsValid() {
			qr.Source = src.String()
		}
		sp = s.tracer.Start(queryStage)
		sp.SetAttr("request_id", id)
		t0 = time.Now()
	}
	var oc outcome
	defer func() {
		if recover() != nil {
			oc = servfail
			out = rawReply(pkt, dnswire.RCodeServFail)
		}
		s.byOutcome[oc].Add(1)
		if qr.ID != "" {
			qr.Status = int(outcomes[oc].rcode)
			qr.Outcome = outcomes[oc].name
			qr.DurUS = int64(time.Since(t0) / time.Microsecond)
			qr.Generation = s.live.Generation()
			s.qlog.Log(qr)
			sp.SetKey(qr.Op)
			sp.Count(qr.Outcome, 1)
			sp.End()
		}
	}()
	out, oc = s.handle(pkt, src, tcp, &qr)
	return out
}

// handle decides a packet's outcome and builds its reply. With a
// query-log record to fill (qr.ID set), it notes the question there.
func (s *Server) handle(pkt []byte, src netip.Addr, tcp bool, qr *qlog.Record) ([]byte, outcome) {
	// Rate limiting happens before parsing: shedding load must not
	// cost a message decode per flooded packet.
	if !s.limiter.allow(src) {
		return rawReply(pkt, dnswire.RCodeRefused), refused
	}
	q, err := dnswire.Unpack(pkt)
	if err != nil {
		return rawReply(pkt, dnswire.RCodeFormErr), formerr
	}
	if q.Response {
		return nil, dropped // a response sent at a server is noise, not a query
	}
	if qr.ID != "" && len(q.Questions) > 0 {
		qr.Hostname = q.Questions[0].Name
		qr.Op = q.Questions[0].Type.String()
	}

	r := dnswire.Reply(q)
	r.Authoritative = true
	if q.EDNS != nil {
		r.EDNS = &dnswire.EDNS{UDPSize: s.cfg.UDPSize}
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
		s.observeUDPLimit(limit)
	}
	out, err := r.PackTruncated(limit)
	if err != nil {
		// The question alone does not fit the negotiated size; answer
		// with a header-only SERVFAIL rather than silence.
		return rawReply(pkt, dnswire.RCodeServFail), servfail
	}
	return out, oc
}

// udpLimit negotiates the response size: the smaller of what the
// client advertised and what the server allows, never below 512.
func (s *Server) udpLimit(q *dnswire.Message) int {
	limit := int(s.cfg.UDPSize)
	if q.EDNS != nil && int(q.EDNS.UDPSize) < limit {
		limit = int(q.EDNS.UDPSize)
	}
	if limit < minUDPSize {
		limit = minUDPSize
	}
	return limit
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
		add(dnswire.TXT(geoloc.AnswerStrings(g)))
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

// rawReply builds a header-only response from the raw bytes of a
// request that may not parse: ID echoed, QR set, opcode and RD bits
// carried over, all counts zero. Frames too short to even echo an ID
// get no reply at all.
func rawReply(pkt []byte, rcode dnswire.RCode) []byte {
	if len(pkt) < 4 {
		return nil
	}
	h := make([]byte, 12)
	h[0], h[1] = pkt[0], pkt[1]
	h[2] = 0x80 | pkt[2]&0x79 // QR | opcode | RD
	h[3] = byte(rcode & 0xF)
	return h
}

// ServeUDP answers queries on conn until ctx is canceled. Packets are
// handled inline — a lookup is microseconds, so per-packet goroutines
// would cost more than they buy.
func (s *Server) ServeUDP(ctx context.Context, conn *net.UDPConn) error {
	buf := make([]byte, 65536)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(pollInterval)); err != nil {
			return err
		}
		n, addr, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		if resp := s.HandlePacket(buf[:n], addr.Addr(), false); resp != nil {
			if _, err := conn.WriteToUDPAddrPort(resp, addr); err != nil && ctx.Err() != nil {
				return nil
			}
		}
	}
}

// ServeTCP answers queries on ln until ctx is canceled, then waits for
// every open connection to drain before returning.
func (s *Server) ServeTCP(ctx context.Context, ln *net.TCPListener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		if err := ln.SetDeadline(time.Now().Add(pollInterval)); err != nil {
			return err
		}
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(ctx, conn)
		}()
	}
}

// serveConn handles one TCP connection: two-byte length-prefixed
// frames (RFC 1035 §4.2.2) until the peer closes, errs, idles past
// the deadline, or the server drains.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	defer func() {
		// A failed close on a drained conn is not actionable, but it is
		// countable.
		if err := conn.Close(); err != nil {
			s.closeErrors.Add(1)
		}
	}()
	src := netip.Addr{}
	if ap, err := netip.ParseAddrPort(conn.RemoteAddr().String()); err == nil {
		src = ap.Addr()
	}
	var lenbuf [2]byte
	// One frame buffer per connection, grown to the largest frame seen.
	// Reusing it is safe: the reply is written before the next read, and
	// nothing HandlePacket returns or keeps aliases the request bytes.
	var frame []byte
	for ctx.Err() == nil {
		if err := conn.SetReadDeadline(time.Now().Add(tcpIdleTimeout)); err != nil {
			return
		}
		if _, err := io.ReadFull(conn, lenbuf[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint16(lenbuf[:]))
		if cap(frame) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		resp := s.HandlePacket(frame, src, true)
		if resp == nil {
			continue
		}
		binary.BigEndian.PutUint16(lenbuf[:], uint16(len(resp)))
		if _, err := conn.Write(lenbuf[:]); err != nil {
			return
		}
		if _, err := conn.Write(resp); err != nil {
			return
		}
	}
}
