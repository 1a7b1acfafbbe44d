package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/daemon"
	"hoiho/internal/geodict"
	"hoiho/internal/geoloc"
	"hoiho/internal/psl"
)

// testConventions is a published conventions file with a dictionary
// hint (IATA) and a stage-4 learned overlay ("ash" -> Ashburn).
const testConventions = `# test conventions
suffix he.net good tp=16 fp=0 fn=0 unk=0 hints=5
regex iata hint ^.+\.core\d+\.([a-z]{3})\d+\.he\.net$
learned iata ash 39.0437 -77.4875 ashburn|va|us tp=4 fp=0 collide=false
`

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

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestGeolocateSingle(t *testing.T) {
	s := newServer(testIndex(t))
	w := postJSON(t, s, "/v1/geolocate", `{"hostname":"et-0-0-0.core3.sjc1.he.net"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var res lookupResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Located || res.Location == nil || res.Location.City != "san jose" {
		t.Errorf("result = %+v", res)
	}
	if res.Suffix != "he.net" || res.Hint != "sjc" || res.Type != "iata" || res.Learned {
		t.Errorf("metadata = %+v", res)
	}
}

func TestGeolocateLearnedOverlay(t *testing.T) {
	s := newServer(testIndex(t))
	w := postJSON(t, s, "/v1/geolocate", `{"hostname":"xe-1.core9.ash1.he.net"}`)
	var res lookupResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Located || !res.Learned || res.Location.City != "ashburn" {
		t.Errorf("learned overlay result = %+v", res)
	}
}

func TestGeolocateBatch(t *testing.T) {
	s := newServer(testIndex(t))
	w := postJSON(t, s, "/v1/geolocate",
		`{"hostnames":["et-0.core1.lhr2.he.net","no-match.he.net","x.unknown-suffix.org"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var res batchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(res.Results))
	}
	if !res.Results[0].Located || res.Results[0].Location.City != "london" {
		t.Errorf("results[0] = %+v", res.Results[0])
	}
	if res.Results[1].Located || res.Results[2].Located {
		t.Errorf("misses reported as located: %+v", res.Results[1:])
	}
	if res.Results[1].Hostname != "no-match.he.net" {
		t.Errorf("batch order broken: %+v", res.Results[1])
	}
}

func TestGeolocateBadRequests(t *testing.T) {
	s := newServer(testIndex(t))
	for name, body := range map[string]string{
		"empty":      `{}`,
		"both":       `{"hostname":"a.he.net","hostnames":["b.he.net"]}`,
		"malformed":  `{"hostname":`,
		"unknownkey": `{"host":"a.he.net"}`,
	} {
		if w := postJSON(t, s, "/v1/geolocate", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, w.Code)
		}
	}
	over := make([]string, maxBatch+1)
	for i := range over {
		over[i] = fmt.Sprintf("h%d.he.net", i)
	}
	body, _ := json.Marshal(lookupRequest{Hostnames: over})
	if w := postJSON(t, s, "/v1/geolocate", string(body)); w.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400", w.Code)
	}
}

func TestGeolocateMethodNotAllowed(t *testing.T) {
	s := newServer(testIndex(t))
	if w := get(t, s, "/v1/geolocate"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/geolocate = %d, want 405", w.Code)
	}
}

func TestHealthz(t *testing.T) {
	s := newServer(testIndex(t))
	w := get(t, s, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var res struct {
		Status   string `json:"status"`
		Suffixes int    `json:"suffixes"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "ok" || res.Suffixes != 1 {
		t.Errorf("healthz = %+v", res)
	}
}

func TestMetricsCounters(t *testing.T) {
	s := newServer(testIndex(t))
	postJSON(t, s, "/v1/geolocate", `{"hostname":"et-0.core1.sjc1.he.net"}`)
	postJSON(t, s, "/v1/geolocate", `{"hostname":"et-0.core1.sjc1.he.net"}`)
	postJSON(t, s, "/v1/geolocate", `{"hostnames":["a.core1.lhr1.he.net","b.unknown.org"]}`)
	postJSON(t, s, "/v1/geolocate", `{}`)
	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var m struct {
		Server struct {
			Requests    int64 `json:"requests"`
			BadRequests int64 `json:"bad_requests"`
			Hostnames   int64 `json:"hostnames"`
		} `json:"server"`
		Latency map[string]int64 `json:"latency_us"`
		Index   geoloc.Stats     `json:"index"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics is not JSON: %v\n%s", err, w.Body)
	}
	if m.Server.Requests != 5 || m.Server.BadRequests != 1 || m.Server.Hostnames != 4 {
		t.Errorf("server counters = %+v", m.Server)
	}
	if m.Index.Lookups != 4 || m.Index.Matched != 3 || m.Index.CacheHits != 1 {
		t.Errorf("index counters = %+v", m.Index)
	}
	if m.Index.BySuffix["he.net"] != 3 || m.Index.ByClass["good"] != 3 {
		t.Errorf("match attribution = %+v", m.Index)
	}
	var observations int64
	for _, n := range m.Latency {
		observations += n
	}
	if observations != 4 {
		t.Errorf("latency histogram observed %d requests, want 4", observations)
	}
}

// TestServeGracefulShutdown drives the serve loop main runs
// (daemon.Serve): requests succeed while the context lives, and
// cancellation drains cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := newServer(testIndex(t))
	done := make(chan error, 1)
	go func() { done <- daemon.Serve(ctx, ln, s) }()

	url := "http://" + ln.Addr().String() + "/healthz"
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down within 5s of cancellation")
	}
	if _, err := http.Get(url); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}
