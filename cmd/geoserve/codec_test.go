package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/geo"
	"hoiho/internal/geodict"
	"hoiho/internal/geoloc"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// puts at random and allocation counts stop being exact.
var raceEnabled bool

// goldenIndex compiles the golden conventions as geoserve -nc does.
func goldenIndex(t testing.TB) *geoloc.Index {
	t.Helper()
	src := &geoloc.Source{NC: filepath.Join("..", "..", "testdata", "golden", "conventions.txt")}
	res, err := src.Resolve(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res.Index
}

// goldenHostnames returns every hostname of the golden corpus.
func goldenHostnames(t testing.TB) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "corpus.names"))
	if err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			hosts = append(hosts, f[len(f)-1])
		}
	}
	if len(hosts) < 700 {
		t.Fatalf("read %d hostnames, want the whole corpus", len(hosts))
	}
	return hosts
}

func mustMarshal(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkReply asserts a /v1/geolocate reply is a 200 whose body is want,
// framed by a Content-Length that matches it.
func checkReply(t *testing.T, w *httptest.ResponseRecorder, want []byte) {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("body differs from the oracle\n got %s\nwant %s", w.Body, want)
	}
	if got, want := w.Header().Get("Content-Length"), strconv.Itoa(w.Body.Len()); got != want {
		t.Errorf("Content-Length = %q, want %q", got, want)
	}
	if got := w.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", got)
	}
}

// TestGeolocateMatchesOracle posts every golden-corpus hostname, singly
// and in batches of 100, and compares each reply with encoding/json's
// rendering of Index.Lookup.
func TestGeolocateMatchesOracle(t *testing.T) {
	ix := goldenIndex(t)
	s := newServer(ix)
	hosts := goldenHostnames(t)
	located := 0
	for _, h := range hosts {
		w := postJSON(t, s, "/v1/geolocate", mustMarshal(t, lookupRequest{Hostname: h}))
		g, ok := ix.Lookup(h)
		if ok {
			located++
		}
		checkReply(t, w, oracleSingle(t, h, g))
	}
	if located == 0 {
		t.Fatal("no golden hostname located; the comparison covers misses only")
	}
	for i := 0; i < len(hosts); i += 100 {
		batch := hosts[i:min(i+100, len(hosts))]
		w := postJSON(t, s, "/v1/geolocate", mustMarshal(t, lookupRequest{Hostnames: batch}))
		checkReply(t, w, oracleBatch(t, batch, ix.LookupBatch(batch)))
	}
}

// TestGeolocateConcurrentBatches posts distinct batches from eight
// goroutines at once, twice: the second pass is served from the result
// cache. A pooled buffer shared by two requests in flight garbles a
// reply; a cache key aliasing a pooled buffer changes under the cache
// and turns second-pass hits into misses or wrong answers.
func TestGeolocateConcurrentBatches(t *testing.T) {
	ix := goldenIndex(t)
	s := newServer(ix)
	oracle := goldenIndex(t)
	const clients = 8
	batches := make([][]string, clients)
	for i, h := range goldenHostnames(t) {
		batches[i%clients] = append(batches[i%clients], h)
	}
	bodies := make([]string, clients)
	want := make([][]byte, clients)
	total := 0
	for c, b := range batches {
		bodies[c] = mustMarshal(t, lookupRequest{Hostnames: b})
		want[c] = oracleBatch(t, b, oracle.LookupBatch(b))
		total += len(b)
	}
	for pass := 0; pass < 2; pass++ {
		before := ix.Stats().CacheHits
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, "/v1/geolocate", strings.NewReader(bodies[c]))
				w := httptest.NewRecorder()
				<-start
				s.ServeHTTP(w, req)
				if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want[c]) {
					t.Errorf("pass %d, client %d: status %d, reply differs from the oracle\n got %s\nwant %s",
						pass, c, w.Code, w.Body, want[c])
				}
			}(c)
		}
		close(start)
		wg.Wait()
		if hits := ix.Stats().CacheHits - before; pass == 1 && hits != uint64(total) {
			t.Errorf("second pass: %d cache hits, want all %d hostnames", hits, total)
		}
	}
}

// nopWriter is a ResponseWriter that discards the reply.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}

// TestGeolocateAllocs pins the allocations of a cached /v1/geolocate
// request through ServeHTTP on the golden conventions. What remains is
// per request (the body limit, the status writer, the reply headers and
// the batch's result slice) plus one string per hostname, which the
// result cache may keep as a key.
func TestGeolocateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	s := newServer(goldenIndex(t))
	hosts := goldenHostnames(t)[:100]
	for _, tc := range []struct {
		name string
		body string
		max  float64
	}{
		{"single", mustMarshal(t, lookupRequest{Hostname: hosts[0]}), 6},
		{"batch of 100", mustMarshal(t, lookupRequest{Hostnames: hosts}), 107},
	} {
		rd := strings.NewReader(tc.body)
		body := io.NopCloser(rd)
		req := httptest.NewRequest(http.MethodPost, "/v1/geolocate", nil)
		w := &nopWriter{h: http.Header{}}
		serve := func() {
			rd.Reset(tc.body)
			req.Body = body
			s.ServeHTTP(w, req)
		}
		serve() // fill the result cache
		if a := testing.AllocsPerRun(100, serve); a > tc.max {
			t.Errorf("%s: %v allocations, want at most %v", tc.name, a, tc.max)
		}
	}
}

// errBodyRead stands in for a connection that fails mid-body.
var errBodyRead = errors.New("connection reset mid-body")

// FuzzGeolocateBody checks the request decoder against the one it
// replaced: for any body, read to its end, cut off by a read error, or
// held to a byte limit, readLookupRequest and decode alone must fill
// the same lookupRequest or answer with the same status and envelope.
func FuzzGeolocateBody(f *testing.F) {
	for _, body := range []string{
		`{"hostname":"et-0-0-0.core3.sjc1.he.net"}`,
		`{"hostnames":["et-0.core1.lhr2.he.net","no-match.he.net","x.unknown-suffix.org"]}`,
		" \t\r\n{ \"hostnames\" : [ \"a.he.net\" , \"b.he.net\" ] } \n",
		`{"hostname":"a.he.net"}`,
		`{"hostname":"a\"b"}`,
		"{\"hostname\":\"a\u2028b.he.net\"}",
		"{\"hostname\":\"a\xffb.he.net\"}",
		"{\"hostname\":\"a\x01b\"}",
		`{"Hostname":"a.he.net"}`,
		`{"HOSTNAMES":["a.he.net"]}`,
		`{"hostname":"a.he.net","hostname":"b.he.net"}`,
		`{"hostname":null}`,
		`{"hostnames":null}`,
		`{"hostnames":[null]}`,
		`{"hostnames":["a.he.net",]}`,
		`{"hostname":"a.he.net"} trailing`,
		`{"hostname":"a.he.net"}{}`,
		`{"hostnames":[]}`,
		`{"hostname":"a.he.net","hostnames":["b.he.net"]}`,
		`{"hostname":""}`,
		`{"hostname":1}`,
		`{"host":"a.he.net"}`,
		`{}`,
		`[]`,
		`null`,
		``,
		`{"hostname":`,
		"\xef\xbb\xbf{\"hostname\":\"a.he.net\"}",
	} {
		f.Add([]byte(body), uint8(0))
	}
	f.Add([]byte(`{"hostname":"a.he.net"}`), uint8(1))
	f.Add([]byte(`{"hostname":"a.he.net"}`), uint8(2))
	f.Add([]byte(`{"hostnames":["a.he.net","b.he.net"]}`), uint8(2))
	s := newServer(testIndex(f))
	f.Fuzz(func(t *testing.T, body []byte, mode uint8) {
		// mode 0 reads the body to its end, 1 fails the read after it,
		// and 2 holds it to a limit half its length (413 unless decode
		// finishes a value before the limit).
		newRequest := func(w http.ResponseWriter) *http.Request {
			var rd io.Reader = bytes.NewReader(body)
			if mode%3 == 1 {
				rd = &replayReader{body, errBodyRead}
			}
			r := httptest.NewRequest(http.MethodPost, "/v1/geolocate", rd)
			if mode%3 == 2 {
				r.Body = http.MaxBytesReader(w, r.Body, int64(len(body)/2))
			}
			return r
		}
		gotW, wantW := httptest.NewRecorder(), httptest.NewRecorder()
		got, gotOK := s.readLookupRequest(gotW, newRequest(gotW))
		// Dirty the buffer the body was read into: a hostname that
		// aliased it would change under the comparison below.
		p := getBuf()
		dirty := (*p)[:cap(*p)]
		for i := range dirty {
			dirty[i] = 'x'
		}
		putBuf(p)
		var want lookupRequest
		wantOK := s.decode(wantW, newRequest(wantW).Body, &want)
		if gotOK != wantOK {
			t.Fatalf("body %q: accepted %v, oracle %v (%s)", body, gotOK, wantOK, wantW.Body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: request %#v, oracle %#v", body, got, want)
		}
		if gotW.Code != wantW.Code || !bytes.Equal(gotW.Body.Bytes(), wantW.Body.Bytes()) {
			t.Fatalf("body %q: answer %d %s, oracle %d %s", body, gotW.Code, gotW.Body, wantW.Code, wantW.Body)
		}
	})
}

// FuzzAppendResult checks appendResult against encoding/json's
// rendering of the old result struct, for any strings, any finite
// coordinates, any hint type, learned or not, located or not.
func FuzzAppendResult(f *testing.F) {
	add := func(host, suffix, hint, city, region, country string, lat, long float64, ht int8, learned, located bool) {
		f.Add(host, suffix, hint, city, region, country, math.Float64bits(lat), math.Float64bits(long), ht, learned, located)
	}
	add("et-0-0-0.core3.sjc1.he.net", "he.net", "sjc", "san jose", "ca", "us", 37.3394, -121.895, int8(geodict.HintIATA), false, true)
	add("xe-1.core9.ash1.he.net", "he.net", "ash", "ashburn", "va", "us", 39.0437, -77.4875, int8(geodict.HintIATA), true, true)
	add("x.unknown-suffix.org", "", "", "", "", "", 0, 0, 0, false, false)
	add("a\"b\\c/d<e>&f", "\b\f\n\r\t", "\x00\x01\x1f\x7f", "a\u2028b\u2029c", "\xff\xfe", "\xe2\x80", 0, 0, int8(geodict.HintPlace), false, true)
	add("caf\u00e9\U0001F600", "", "", "z\u00fcrich", "", "ch", 47.3769, 8.5417, int8(geodict.HintCLLI), false, true)
	add("a", "s", "h", "c", "", "cc", math.Copysign(0, -1), 1e-7, int8(geodict.HintState), false, true)
	add("a", "s", "h", "c", "r", "cc", 1e21, -1e-6, 100, true, true)
	add("a", "s", "h", "c", "r", "cc", 123456789e-15, math.MaxFloat64, -3, false, true)
	add("a", "s", "h", "c", "r", "cc", math.SmallestNonzeroFloat64, 9.999999999999999e20, 0, false, true)
	f.Fuzz(func(t *testing.T, host, suffix, hint, city, region, country string, lat, long uint64, ht int8, learned, located bool) {
		var g *core.Geolocation
		if located {
			pos := geo.LatLong{Lat: math.Float64frombits(lat), Long: math.Float64frombits(long)}
			for _, v := range []float64{pos.Lat, pos.Long} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Skip("encoding/json refuses non-finite floats; ReadConventions never loads one")
				}
			}
			g = &core.Geolocation{
				Hostname: host, Suffix: suffix, Hint: hint, Type: geodict.HintType(ht), Learned: learned,
				Loc: &geodict.Location{City: city, Region: region, Country: country, Pos: pos},
			}
		}
		got := append(appendResult(nil, host, g), '\n')
		if want := oracleSingle(t, host, g); !bytes.Equal(got, want) {
			t.Fatalf("appendResult\n got %s\nwant %s", got, want)
		}
	})
}
