package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"
)

// The HTTP client is hand-rolled on purpose: net/http's client spends
// about as much CPU per request as geoserve spends serving it, and on a
// two-core host that CPU comes out of the daemon's share. This client
// sends prebuilt request bytes over keep-alive connections, parses only
// the status line, the framing headers and the body, and decodes each
// distinct answer once per run: repeats are byte-compared with the
// verified copy.

// httpConn is one keep-alive connection to geoserve.
type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (h *httpConn) close() error { return h.c.Close() }

// do writes one request and reads its response. The body aliases a
// buffer the next call overwrites.
func (h *httpConn) do(req []byte) (status int, body []byte, err error) {
	if err := h.c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := h.c.Write(req); err != nil {
		return 0, nil, err
	}
	return h.readResponse()
}

func (h *httpConn) readResponse() (int, []byte, error) {
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err := h.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, fmt.Errorf("malformed header %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		err = h.readChunked()
	case length >= 0:
		err = h.readN(length)
	default:
		err = errors.New("response has neither Content-Length nor chunked framing")
	}
	return status, h.body, err
}

func (h *httpConn) readN(n int) error {
	start := len(h.body)
	h.body = append(h.body, make([]byte, n)...)
	_, err := io.ReadFull(h.br, h.body[start:])
	return err
}

func (h *httpConn) readChunked() error {
	for {
		line, err := h.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseInt(string(size), 16, 32)
		if err != nil {
			return fmt.Errorf("malformed chunk size %q", line)
		}
		if n == 0 {
			// Trailer section: header lines up to an empty one.
			for {
				line, err := h.br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		if err := h.readN(int(n)); err != nil {
			return err
		}
		if _, err := h.br.Discard(2); err != nil { // chunk CRLF
			return err
		}
	}
}

// httpRequest frames a POST with a JSON body.
func httpRequest(dst []byte, path string, body []byte) []byte {
	dst = append(dst, "POST "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// singleRequests prebuilds one /v1/geolocate request per hostname.
// Corpus hostnames are lower-case letters, digits, dots and dashes, so
// they need no JSON escaping; anything else is refused.
func singleRequests(hosts []string) ([][]byte, error) {
	out := make([][]byte, len(hosts))
	for i, h := range hosts {
		if !plainHostname(h) {
			return nil, fmt.Errorf("hostname %q needs escaping", h)
		}
		out[i] = httpRequest(nil, "/v1/geolocate", []byte(`{"hostname":"`+h+`"}`))
	}
	return out, nil
}

func plainHostname(h string) bool {
	for i := 0; i < len(h); i++ {
		c := h[i]
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '.' || c == '-') {
			return false
		}
	}
	return h != ""
}

// batchRequest builds a /v1/geolocate batch request for host ids.
func batchRequest(dst, body []byte, hosts []string, ids []int) ([]byte, []byte) {
	body = append(body[:0], `{"hostnames":[`...)
	for i, id := range ids {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, '"')
		body = append(body, hosts[id]...)
		body = append(body, '"')
	}
	body = append(body, "]}"...)
	return httpRequest(dst[:0], "/v1/geolocate", body), body
}

// httpAnswer is the part of a /v1/geolocate result the benchmark checks.
type httpAnswer struct {
	Hostname string `json:"hostname"`
	Located  bool   `json:"located"`
	Suffix   string `json:"suffix"`
	Hint     string `json:"hint"`
	Location *struct {
		City    string  `json:"city"`
		Country string  `json:"country"`
		Lat     float64 `json:"lat"`
		Long    float64 `json:"long"`
	} `json:"location"`
}

// verified is one hostname's checked answer: the exact bytes the
// daemon sent, and the position it reported for hint scoring.
type verified struct {
	body      []byte
	located   bool
	lat, long float64
}

// httpVerifier checks the answers of every connection to one front. A
// hostname's JSON object is decoded and compared field by field with
// the reference the first time it is seen, which for every hostname is
// the scoring pass; after that an answer is checked by comparing its
// bytes with the verified ones, so checking costs the same from the
// first measured request to the last. An answer whose bytes differ is
// decoded and checked again.
type httpVerifier struct {
	hosts []string
	ref   []answer
	seen  []atomic.Pointer[verified]
}

func newHTTPVerifier(hosts []string, ref []answer) *httpVerifier {
	return &httpVerifier{hosts: hosts, ref: ref, seen: make([]atomic.Pointer[verified], len(hosts))}
}

// check verifies one answer object: a single-lookup body or one element
// of a batch body. Surrounding whitespace is not part of the answer.
func (v *httpVerifier) check(id int, body []byte) (*verified, bool) {
	body = bytes.TrimSpace(body)
	if s := v.seen[id].Load(); s != nil && bytes.Equal(s.body, body) {
		return s, true
	}
	var got httpAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, false
	}
	a := &v.ref[id]
	ok := got.Hostname == v.hosts[id] && got.Located == a.located
	s := &verified{body: bytes.Clone(body), located: got.Located}
	if ok && a.located {
		loc := got.Location
		ok = loc != nil && got.Suffix == a.suffix && got.Hint == a.hint &&
			loc.City == a.city && loc.Country == a.country && loc.Lat == a.lat && loc.Long == a.long
		if ok {
			s.lat, s.long = loc.Lat, loc.Long
		}
	}
	if !ok {
		return nil, false
	}
	v.seen[id].Store(s)
	return s, true
}

// splitResults returns the elements of the "results" array of a batch
// body without decoding them, by tracking strings and nesting.
func splitResults(body []byte, dst [][]byte) ([][]byte, bool) {
	dst = dst[:0]
	i := bytes.Index(body, []byte(`"results"`))
	if i < 0 {
		return nil, false
	}
	i += len(`"results"`)
	for i < len(body) && body[i] != '[' {
		i++
	}
	i++
	for {
		for i < len(body) && (body[i] == ' ' || body[i] == ',' || body[i] == '\n') {
			i++
		}
		if i >= len(body) {
			return nil, false
		}
		if body[i] == ']' {
			return dst, true
		}
		if body[i] != '{' {
			return nil, false
		}
		start, depth, inStr := i, 0, false
		for ; i < len(body); i++ {
			c := body[i]
			switch {
			case inStr && c == '\\':
				i++
			case c == '"':
				inStr = !inStr
			case inStr:
			case c == '{' || c == '[':
				depth++
			case c == '}' || c == ']':
				depth--
			}
			if depth == 0 {
				break
			}
		}
		if i >= len(body) {
			return nil, false
		}
		i++
		dst = append(dst, body[start:i])
	}
}

// httpFront drives geoserve.
type httpFront struct {
	addr   string
	hosts  []string
	ref    []answer
	single [][]byte // prebuilt request per host id
	verify *httpVerifier
}

// singleOp returns the operation of the single phase on one
// connection: one hostname per request.
func (f *httpFront) singleOp(c *httpConn) func(id int) (int, bool, error) {
	return func(id int) (int, bool, error) {
		status, body, err := c.do(f.single[id])
		if err != nil {
			return 0, false, err
		}
		_, ok := f.verify.check(id, body)
		return 1, ok && status == 200, nil
	}
}

// batchWorker sends batchSize hostnames per request.
func (f *httpFront) batchWorker(c *httpConn, st *stream) worker {
	ids := make([]int, batchSize)
	var req, body []byte
	var elems [][]byte
	return func() (int, bool, error) {
		for i := range ids {
			ids[i] = st.next()
		}
		req, body = batchRequest(req, body, f.hosts, ids)
		status, resp, err := c.do(req)
		if err != nil {
			return 0, false, err
		}
		var ok bool
		elems, ok = splitResults(resp, elems)
		ok = ok && status == 200 && len(elems) == len(ids)
		for i := 0; ok && i < len(ids); i++ {
			_, ok = f.verify.check(ids[i], elems[i])
		}
		return len(ids), ok, nil
	}
}

// batchSize is the hostnames per HTTP batch and per DNS TCP burst.
const batchSize = 100

// scoreAll asks for every hostname once, in batches, checks every
// answer and scores the hint-bearing ones. It returns the operations
// attempted and failed.
func (f *httpFront) scoreAll(score *hintScore) (attempted, failed int64, err error) {
	c, err := dialHTTP(f.addr)
	if err != nil {
		return 0, 0, err
	}
	defer closeInto(c, &err)
	var req, body []byte
	var elems [][]byte
	for lo := 0; lo < len(f.hosts); lo += batchSize {
		ids := make([]int, 0, batchSize)
		for id := lo; id < min(lo+batchSize, len(f.hosts)); id++ {
			ids = append(ids, id)
		}
		req, body = batchRequest(req, body, f.hosts, ids)
		status, resp, err := c.do(req)
		if err != nil {
			return attempted + 1, failed + 1, err
		}
		attempted++
		var ok bool
		elems, ok = splitResults(resp, elems)
		ok = ok && status == 200 && len(elems) == len(ids)
		for i := 0; ok && i < len(ids); i++ {
			var s *verified
			if s, ok = f.verify.check(ids[i], elems[i]); ok {
				score.add(s.located, s.lat, s.long, &f.ref[ids[i]])
			}
		}
		if !ok {
			failed++
		}
	}
	return attempted, failed, nil
}

// probe sends one verified request; the cold-start clock stops on it.
func (f *httpFront) probe(id int) (err error) {
	c, err := dialHTTP(f.addr)
	if err != nil {
		return err
	}
	defer closeInto(c, &err)
	status, body, err := c.do(f.single[id])
	if err != nil {
		return err
	}
	if _, ok := f.verify.check(id, body); !ok || status != 200 {
		return fmt.Errorf("%w for %s: %s", errWrongAnswer, f.hosts[id], body)
	}
	return nil
}

// get fetches a path.
func (h *httpConn) get(path string) (int, []byte, error) {
	return h.do([]byte("GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n"))
}
