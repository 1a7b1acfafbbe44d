package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/daemon"
	"hoiho/internal/dnsserve"
	"hoiho/internal/dnswire"
	"hoiho/internal/geodict"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
	"hoiho/internal/promexp"
	"hoiho/internal/psl"
	"hoiho/internal/qlog"
)

// testConventions matches the dnsserve and geoserve fixtures: a
// dictionary IATA convention for he.net plus a learned overlay.
const testConventions = `# test conventions
suffix he.net good tp=16 fp=0 fn=0 unk=0 hints=5
regex iata hint ^.+\.core\d+\.([a-z]{3})\d+\.he\.net$
learned iata ash 39.0437 -77.4875 ashburn|va|us tp=4 fp=0 collide=false
`

var testSrc = netip.MustParseAddr("192.0.2.1")

// adminFixture builds a server with the query log on, drives a request
// mix through the handler, and returns its admin plane: 2 NOERROR TXT
// hits, 1 NXDOMAIN, 1 dropped response message.
func adminFixture(t *testing.T) http.Handler {
	t.Helper()
	res, err := core.ReadConventions(strings.NewReader(testConventions))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := geoloc.New(res, geoloc.Options{Dict: geodict.MustDefault(), PSL: psl.MustDefault()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ql, err := qlog.New(qlog.Options{W: &buf, Clock: func() time.Time { return time.UnixMicro(1) }})
	if err != nil {
		t.Fatal(err)
	}
	s := dnsserve.New(ix, dnsserve.Config{Tracer: obs.New(obs.Options{}), QueryLog: ql})
	ask := func(name string, response bool) {
		m := &dnswire.Message{
			ID:        0x4242,
			Response:  response,
			Questions: []dnswire.Question{{Name: name, Type: dnswire.TypeTXT, Class: dnswire.ClassINET}},
			EDNS:      &dnswire.EDNS{UDPSize: 1232},
		}
		pkt, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		s.HandlePacket(pkt, testSrc, false)
	}
	ask("xe-1.core9.ash1.he.net.", false)
	ask("et-0.core1.sjc1.he.net.", false)
	ask("nothing.example.com.", false)
	ask("xe-1.core9.ash1.he.net.", true) // inbound response: dropped
	return newAdmin(s, &daemon.Plane{Name: "geodns", Live: s.Live(), Qlog: ql, Start: time.Now()})
}

func adminGet(t *testing.T, a http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	a.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// TestAdminPromConformance is the acceptance gate: the geodns admin
// exposition passes the exact same format checker geoserve's does,
// because both daemons render through internal/promexp.
func TestAdminPromConformance(t *testing.T) {
	a := adminFixture(t)
	w := adminGet(t, a, "/metrics/prom")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != promexp.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, promexp.ContentType)
	}
	body := w.Body.String()
	if err := promexp.Conform(w.Body.Bytes()); err != nil {
		t.Errorf("exposition not conformant: %v\n%s", err, body)
	}
	for _, want := range []string{
		"geodns_queries_total 4",
		`geodns_responses_total{outcome="noerror"} 2`,
		`geodns_responses_total{outcome="nxdomain"} 1`,
		`geodns_responses_total{outcome="dropped"} 1`,
		"geodns_limiter_refused_total 0",
		"geodns_limiter_evictions_total 0",
		`geodns_edns_udp_size_bytes_bucket{le="1232"} 3`,
		`geodns_edns_udp_size_bytes_bucket{le="+Inf"} 3`,
		"geodns_edns_udp_size_bytes_sum 3696",
		"geodns_index_lookups_total 3",
		`geodns_index_suffix_matches_total{suffix="he.net"} 2`,
		"geodns_index_generation 1",
		"geodns_reloads_total 0",
		"geodns_qlog_records_total 4",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
}

// TestAdminHealthz: liveness carries the serving generation, suffix
// count, and build identity.
func TestAdminHealthz(t *testing.T) {
	a := adminFixture(t)
	w := adminGet(t, a, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var h struct {
		Status     string `json:"status"`
		Suffixes   int    `json:"suffixes"`
		Generation uint64 `json:"generation"`
		Commit     string `json:"commit"`
		GoVersion  string `json:"go_version"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Suffixes != 1 || h.Generation != 1 ||
		h.Commit == "" || h.GoVersion == "" {
		t.Errorf("healthz = %+v", h)
	}
}

// TestAdminPprof: the profiler index is reachable on the admin plane.
func TestAdminPprof(t *testing.T) {
	a := adminFixture(t)
	if w := adminGet(t, a, "/debug/pprof/"); w.Code != http.StatusOK {
		t.Errorf("pprof index status = %d", w.Code)
	}
}
