// Package qlog is the structured query log shared by the serving
// front ends: one JSONL record per answered query (HTTP request or DNS
// packet), sampled, size-rotated, and cheap enough to leave compiled
// into every handler.
//
// The design constraints, in order:
//
//   - Zero cost when disabled. A nil *Logger is the disabled state;
//     every method no-ops without allocating, so handlers carry
//     unconditional qlog calls with no "is logging on?" branches and
//     the hot path is unchanged when the operator never passed -qlog
//     (TestNilLoggerZeroAlloc pins AllocsPerRun == 0, the same
//     contract internal/obs makes for a nil Tracer).
//
//   - Deterministic records. Fields serialize in a fixed order with an
//     injectable clock, so a frozen-clock run emits byte-identical
//     lines — the property that lets CI upload a sample log as a
//     diffable artifact next to the golden trace.
//
//   - Bounded disk. Sampling keeps 1-in-N records; rotation renames
//     the live file to <path>.1 (replacing the previous rotation) when
//     it would exceed MaxBytes, so the log occupies at most about
//     twice MaxBytes regardless of uptime.
//
// NextID decides sampling: it mints a request id only for a query the
// log keeps. The serving layers build and log a record only for those
// queries, so a sampled-out query allocates nothing; the id names the
// logged query in the daemon's own output.
package qlog

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one query-log line. The zero value of every optional
// field (empty string, zero int) is omitted from the serialized form;
// Front, Op, and the timestamp always appear.
type Record struct {
	// Front identifies the serving surface: "http" or "dns".
	Front string
	// Op is the operation: an HTTP route pattern ("POST /v1/geolocate")
	// or a DNS query type ("TXT").
	Op string
	// ID is the request id minted by NextID, naming the query.
	ID string
	// Hostname is the looked-up hostname, when the operation has one.
	Hostname string
	// Source is the client address, when known.
	Source string
	// Status is the HTTP status code or numeric DNS rcode.
	Status int
	// Outcome is the coarse verdict: "ok", "miss", an rcode name —
	// whatever taxonomy the front end already counts.
	Outcome string
	// DurUS is the handler's wall time in microseconds.
	DurUS int64
	// Generation is the serving index generation that answered.
	Generation uint64
}

// Options configures a Logger. Exactly one of Path or W must be set.
type Options struct {
	// Path appends to this file, creating it if needed. Rotation
	// requires a Path-backed logger.
	Path string
	// W writes to an arbitrary sink (tests, stderr). No rotation.
	W io.Writer
	// Sample keeps one query in every Sample; <= 1 keeps all.
	// Sampling is a deterministic counter, not a coin flip, so the same
	// query sequence always keeps the same records.
	Sample int
	// MaxBytes rotates the live file to Path+".1" before a write would
	// push it past this size. 0 disables rotation.
	MaxBytes int64
	// Clock stamps records; nil uses time.Now. Injectable so tests and
	// golden artifacts are byte-stable.
	Clock func() time.Time
}

// Logger writes sampled query records. A nil *Logger is the disabled
// state: every method is a no-op. Construct with New; methods are safe
// for concurrent use.
type Logger struct {
	sample   uint64
	maxBytes int64
	path     string
	clock    func() time.Time

	ids     atomic.Uint64 // request-id mint and sampling counter
	skipped atomic.Uint64 // queries NextID sampled out

	mu        sync.Mutex
	w         io.Writer
	f         *os.File // non-nil only for Path-backed loggers
	buf       []byte   // serialization scratch, reused under mu
	written   int64    // bytes in the live file since open/rotation
	logged    uint64
	rotations uint64
	err       error // first write/rotate error, latched
}

// New opens a logger. Returns an error when neither or both sinks are
// configured, or the path cannot be opened for append.
func New(opts Options) (*Logger, error) {
	if (opts.Path == "") == (opts.W == nil) {
		return nil, fmt.Errorf("qlog: exactly one of Path and W is required")
	}
	sample := uint64(1)
	if opts.Sample > 1 {
		sample = uint64(opts.Sample)
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	l := &Logger{
		sample:   sample,
		maxBytes: opts.MaxBytes,
		path:     opts.Path,
		clock:    clock,
		w:        opts.W,
		buf:      make([]byte, 0, 256),
	}
	if opts.Path != "" {
		f, err := os.OpenFile(opts.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.w, l.written = f, f, st.Size()
	}
	return l, nil
}

// Enabled reports whether records are being kept — false on nil.
func (l *Logger) Enabled() bool { return l != nil }

// NextID counts one query and mints its request id ("q1", "q2", ...)
// when the sampler keeps it. It returns "" for a query sampled out, and
// always when logging is disabled, so callers log only the queries
// that got an id. Under Sample N the kept ids are q1, qN+1, ...
func (l *Logger) NextID() string {
	if l == nil {
		return ""
	}
	n := l.ids.Add(1)
	if (n-1)%l.sample != 0 {
		l.skipped.Add(1)
		return ""
	}
	return "q" + strconv.FormatUint(n, 10)
}

// Log appends one record. Write errors are latched (first one wins)
// and surfaced by Close — a query must never fail because its log line
// did.
func (l *Logger) Log(r Record) {
	if l == nil {
		return
	}
	ts := l.clock().UnixMicro()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = appendRecord(l.buf[:0], ts, r)
	if l.f != nil && l.maxBytes > 0 && l.written > 0 &&
		l.written+int64(len(l.buf)) > l.maxBytes {
		l.rotate()
	}
	n, err := l.w.Write(l.buf)
	l.written += int64(n)
	l.latch(err)
	l.logged++
}

// rotate moves the live file aside as <path>.1 (replacing any previous
// rotation) and reopens a fresh one. Called with mu held. On failure
// the logger keeps appending to the current file — losing rotation is
// better than losing the log.
func (l *Logger) rotate() {
	l.latch(l.f.Close())
	l.latch(os.Rename(l.path, l.path+".1"))
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		// Reopen the old file so logging continues; the latched error
		// reports the failed rotation.
		l.latch(err)
		if f, err = os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			l.latch(err)
			return
		}
	}
	l.f, l.w, l.written = f, f, 0
	l.rotations++
}

// latch records the first error the logger hits (later ones are
// dropped — the first is the cause, the rest are consequences).
// Called with mu held.
func (l *Logger) latch(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// Stats is a point-in-time snapshot of the logger's counters, for the
// daemons' metrics endpoints.
type Stats struct {
	Logged    uint64
	Skipped   uint64 // sampled out
	Rotations uint64
}

// Stats snapshots the counters; zero on nil.
func (l *Logger) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Logged: l.logged, Skipped: l.skipped.Load(), Rotations: l.rotations}
}

// Close closes a Path-backed logger and returns the first latched
// write or rotation error. Nil-safe.
func (l *Logger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.latch(l.f.Close())
		l.f = nil
	}
	return l.err
}

// appendRecord serializes one record as a JSON line in fixed field
// order — hand-assembled so the order is the struct's documentation
// order regardless of encoder behavior, and so serialization reuses
// the logger's scratch buffer.
func appendRecord(b []byte, ts int64, r Record) []byte {
	b = append(b, `{"ts_us":`...)
	b = strconv.AppendInt(b, ts, 10)
	b = appendStringField(b, "id", r.ID)
	b = append(b, `,"front":`...)
	b = strconv.AppendQuote(b, r.Front)
	b = append(b, `,"op":`...)
	b = strconv.AppendQuote(b, r.Op)
	b = appendStringField(b, "hostname", r.Hostname)
	b = appendStringField(b, "source", r.Source)
	if r.Status != 0 {
		b = append(b, `,"status":`...)
		b = strconv.AppendInt(b, int64(r.Status), 10)
	}
	b = appendStringField(b, "outcome", r.Outcome)
	b = append(b, `,"dur_us":`...)
	b = strconv.AppendInt(b, r.DurUS, 10)
	if r.Generation != 0 {
		b = append(b, `,"generation":`...)
		b = strconv.AppendUint(b, r.Generation, 10)
	}
	b = append(b, '}', '\n')
	return b
}

// appendStringField appends ,"name":"value" when value is non-empty.
func appendStringField(b []byte, name, value string) []byte {
	if value == "" {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendQuote(b, value)
}
