package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"hoiho/internal/core"
)

// The /v1/geolocate codec. Batch traffic is the daemon's bulk load, and
// encoding/json's reflection cost several times the index lookups it
// framed, so this path reads and writes JSON by hand:
//
//   - A body is read once into a pooled buffer. parseCanonical takes the
//     two shapes clients send, {"hostname":"..."} and
//     {"hostnames":["...",...]}; every other body, and a body whose read
//     failed, is replayed into s.decode, so its answer, status and
//     error message stay encoding/json's.
//   - appendResult writes each answer straight from *core.Geolocation
//     into one pooled buffer, byte for byte what json.Encoder with
//     SetEscapeHTML(false) wrote for the struct the tests keep as the
//     oracle (oracle_test.go), and writeReply sends it in one Write
//     framed by Content-Length.

// maxPooledBuf is the largest buffer bufPool takes back. One megabatch
// grows a buffer to megabytes; dropping it keeps the pool from pinning
// that memory for the daemon's lifetime.
const maxPooledBuf = 64 << 10

// bufPool holds request-body and reply buffers. No string that outlives
// a request may alias one: hostnames are copied out of the body before
// it goes back, because the result cache keeps them as keys.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(p *[]byte) {
	if cap(*p) > maxPooledBuf {
		return
	}
	*p = (*p)[:0]
	bufPool.Put(p)
}

// readLookupRequest reads a /v1/geolocate body, answering a malformed
// or oversized body with its error envelope the way decode does; it
// reports whether the request was read.
func (s *server) readLookupRequest(w http.ResponseWriter, r *http.Request) (lookupRequest, bool) {
	p := getBuf()
	defer putBuf(p)
	body, err := readAll(*p, r.Body)
	*p = body
	if err == nil {
		if req, ok := parseCanonical(body); ok {
			return req, true
		}
		err = io.EOF
	}
	var req lookupRequest
	ok := s.decode(w, &replayReader{body, err}, &req)
	return req, ok
}

// readAll appends r's bytes to b until r ends, like io.ReadAll, and
// returns the error that ended the read, nil for io.EOF.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if errors.Is(err, io.EOF) {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// replayReader yields bytes already read from a body, then the error
// that ended that read: decode sees the byte stream and the failure it
// would have seen reading the body itself.
type replayReader struct {
	b   []byte
	err error
}

func (r *replayReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// parseCanonical parses {"hostname":"..."} or {"hostnames":["...",...]},
// with JSON whitespace between tokens and after the object. It refuses
// everything else, for decode to answer: another key or spelling of
// one, a second key, a value that is not a string (null included), a
// string holding an escape, a control byte or invalid UTF-8, and bytes
// after the object. The hostnames are copies, not views into b.
func parseCanonical(b []byte) (lookupRequest, bool) {
	var req lookupRequest
	sc := scanner{b: b}
	if !sc.consume('{') {
		return req, false
	}
	key, ok := sc.str()
	if !ok || !sc.consume(':') {
		return req, false
	}
	switch string(key) {
	case "hostname":
		v, ok := sc.str()
		if !ok {
			return req, false
		}
		req.Hostname = string(v)
	case "hostnames":
		if !sc.consume('[') {
			return req, false
		}
		// In a canonical body every quote delimits a string, so the
		// quotes count the hostnames exactly; the bound keeps a body of
		// bare quotes from sizing a huge slice.
		n := bytes.Count(b, []byte{'"'})/2 - 1
		req.Hostnames = make([]string, 0, min(n, maxBatch+1))
		if !sc.consume(']') {
			for {
				v, ok := sc.str()
				if !ok {
					return req, false
				}
				req.Hostnames = append(req.Hostnames, string(v))
				if sc.consume(']') {
					break
				}
				if !sc.consume(',') {
					return req, false
				}
			}
		}
	default:
		return req, false
	}
	if !sc.consume('}') {
		return req, false
	}
	sc.space()
	return req, sc.i == len(b)
}

// scanner walks a request body for parseCanonical.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (sc *scanner) space() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (sc *scanner) consume(c byte) bool {
	sc.space()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// str skips whitespace and returns the contents of the string that
// follows, when it holds neither an escape nor a control byte and is
// valid UTF-8: the strings encoding/json decodes to their own bytes.
func (sc *scanner) str() ([]byte, bool) {
	if !sc.consume('"') {
		return nil, false
	}
	start, ascii := sc.i, true
	for i := start; i < len(sc.b); i++ {
		switch c := sc.b[i]; {
		case c == '"':
			sc.i = i + 1
			v := sc.b[start:i]
			return v, ascii || utf8.Valid(v)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// appendResult appends one /v1/geolocate answer: the hostname and
// whether it was located, then for a located one its suffix, hint,
// type, whether the hint was learned, and its location, each field
// omitted when empty as the oracle's omitempty tags omit it.
func appendResult(b []byte, hostname string, g *core.Geolocation) []byte {
	b = append(b, `{"hostname":`...)
	b = appendString(b, hostname)
	if g == nil {
		return append(b, `,"located":false}`...)
	}
	b = append(b, `,"located":true`...)
	if g.Suffix != "" {
		b = append(b, `,"suffix":`...)
		b = appendString(b, g.Suffix)
	}
	if g.Hint != "" {
		b = append(b, `,"hint":`...)
		b = appendString(b, g.Hint)
	}
	// HintType.String never returns "", so the type is never omitted.
	b = append(b, `,"type":`...)
	b = appendString(b, g.Type.String())
	if g.Learned {
		b = append(b, `,"learned":true`...)
	}
	b = append(b, `,"location":{"city":`...)
	b = appendString(b, g.Loc.City)
	if g.Loc.Region != "" {
		b = append(b, `,"region":`...)
		b = appendString(b, g.Loc.Region)
	}
	b = append(b, `,"country":`...)
	b = appendString(b, g.Loc.Country)
	b = append(b, `,"lat":`...)
	b = appendFloat(b, g.Loc.Pos.Lat)
	b = append(b, `,"long":`...)
	b = appendFloat(b, g.Loc.Pos.Long)
	return append(b, "}}"...)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with the escapes
// encoding/json uses when HTML escaping is off: \" and \\, the short
// forms of \b \f \n \r \t, \u00XX for other control bytes, \ufffd for
// each byte of invalid UTF-8, and \u2028 and \u2029, which JavaScript
// does not accept raw in a string.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends a finite float64 the way encoding/json does (the
// ES6 number format): shortest 'f' form, or 'e' form below 1e-6 and
// from 1e21, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// writeReply sends a 200 JSON reply in one Write, framed by
// Content-Length rather than chunks.
func writeReply(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	//lint:ignore droppederr the status line is already on the wire; a write failure means the client hung up
	w.Write(body)
}
