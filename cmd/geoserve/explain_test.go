package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hoiho/internal/geoloc"
	"hoiho/internal/qlog"
)

// TestExplainEndpoint: GET and POST produce the same trace, which
// agrees with /v1/geolocate's answer.
func TestExplainEndpoint(t *testing.T) {
	s := newServer(testIndex(t))
	wGet := get(t, s, "/v1/explain?hostname=xe-1.core9.ash1.he.net")
	wPost := postJSON(t, s, "/v1/explain", `{"hostname":"xe-1.core9.ash1.he.net"}`)
	if wGet.Code != http.StatusOK || wPost.Code != http.StatusOK {
		t.Fatalf("status: GET %d, POST %d", wGet.Code, wPost.Code)
	}
	if wGet.Body.String() != wPost.Body.String() {
		t.Errorf("GET and POST explain bodies differ:\n%s\n%s", wGet.Body, wPost.Body)
	}
	var ex geoloc.Explanation
	if err := json.Unmarshal(wGet.Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if !ex.Located || !ex.Learned || ex.Location.City != "ashburn" {
		t.Errorf("explanation = %+v", ex)
	}
	if ex.Convention == nil || ex.Convention.Class != "good" || ex.Convention.PPV != 1 {
		t.Errorf("convention evidence = %+v", ex.Convention)
	}
	if len(ex.Steps) == 0 || ex.Steps[len(ex.Steps)-1].Resolution != geoloc.ResolutionLearned {
		t.Errorf("steps = %+v", ex.Steps)
	}
}

// TestExplainDeterministic: repeated calls are byte-identical — the
// serving half of the golden acceptance criterion.
func TestExplainDeterministic(t *testing.T) {
	s := newServer(testIndex(t))
	a := get(t, s, "/v1/explain?hostname=et-0.core1.sjc1.he.net").Body.String()
	b := get(t, s, "/v1/explain?hostname=et-0.core1.sjc1.he.net").Body.String()
	if a != b {
		t.Errorf("explain responses differ across runs:\n%s\n%s", a, b)
	}
}

// TestExplainTextFormat: ?format=text serves the CLI report.
func TestExplainTextFormat(t *testing.T) {
	s := newServer(testIndex(t))
	w := get(t, s, "/v1/explain?format=text&hostname=et-0.core1.sjc1.he.net")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{"hostname:   et-0.core1.sjc1.he.net", "suffix:     he.net", "verdict:"} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, w.Body)
		}
	}
}

// TestExplainErrors: missing hostname, malformed body, and unknown
// format all use the /v1 error envelope.
func TestExplainErrors(t *testing.T) {
	s := newServer(testIndex(t))
	cases := []struct {
		name string
		code int
		body string
	}{
		{"missing hostname GET", get(t, s, "/v1/explain").Code,
			get(t, s, "/v1/explain").Body.String()},
		{"missing hostname POST", postJSON(t, s, "/v1/explain", `{}`).Code,
			postJSON(t, s, "/v1/explain", `{}`).Body.String()},
		{"malformed body", postJSON(t, s, "/v1/explain", `{"hostname":`).Code,
			postJSON(t, s, "/v1/explain", `{"hostname":`).Body.String()},
		{"unknown format", get(t, s, "/v1/explain?hostname=a.he.net&format=xml").Code,
			get(t, s, "/v1/explain?hostname=a.he.net&format=xml").Body.String()},
	}
	for _, tc := range cases {
		if tc.code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, tc.code)
		}
		var env apiError
		if err := json.Unmarshal([]byte(tc.body), &env); err != nil || env.Error.Code == "" {
			t.Errorf("%s: response is not the error envelope: %s", tc.name, tc.body)
		}
	}
	lookups := s.plane.Live.Stats().Lookups
	for name, w := range map[string]*httptest.ResponseRecorder{
		"254-byte name GET":  get(t, s, "/v1/explain?hostname="+longName(maxNameLen+1)),
		"254-byte name POST": postJSON(t, s, "/v1/explain", fmt.Sprintf(`{"hostname":%q}`, longName(maxNameLen+1))),
		"1 MB name GET":      get(t, s, "/v1/explain?hostname="+longName(1<<20)),
		"1 MB name POST":     postJSON(t, s, "/v1/explain", fmt.Sprintf(`{"hostname":%q}`, longName(1<<20))),
	} {
		if code := errorCode(w); w.Code != http.StatusBadRequest || code != "hostname_too_long" {
			t.Errorf("%s: status %d, code %q, want 400 hostname_too_long", name, w.Code, code)
		}
	}
	if got := s.plane.Live.Stats().Lookups; got != lookups {
		t.Errorf("refused names made %d lookups, want 0", got-lookups)
	}
	if w := get(t, s, "/v1/explain?hostname="+longName(maxNameLen)+"."); w.Code != http.StatusOK {
		t.Errorf("253-byte name with root dot: status = %d, want 200", w.Code)
	}
}

// TestQlogWiring: with a logger attached, each handled request logs one
// sampled record carrying the route, status, and a request id.
func TestQlogWiring(t *testing.T) {
	var buf bytes.Buffer
	ql, err := qlog.New(qlog.Options{W: &buf, Clock: func() time.Time { return time.UnixMicro(42) }})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(testIndex(t))
	s.enableQlog(ql)
	postJSON(t, s, "/v1/geolocate", `{"hostname":"et-0.core1.sjc1.he.net"}`)
	postJSON(t, s, "/v1/geolocate", `{}`) // 400
	get(t, s, "/healthz")

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("qlog has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var rec struct {
		TS         int64  `json:"ts_us"`
		ID         string `json:"id"`
		Front      string `json:"front"`
		Op         string `json:"op"`
		Hostname   string `json:"hostname"`
		Status     int    `json:"status"`
		Outcome    string `json:"outcome"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.TS != 42 || rec.ID != "q1" || rec.Front != "http" ||
		rec.Op != "POST /v1/geolocate" || rec.Hostname != "et-0.core1.sjc1.he.net" ||
		rec.Status != 200 || rec.Outcome != "2xx" || rec.Generation != 1 {
		t.Errorf("first record = %+v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Status != 400 || rec.Outcome != "4xx" {
		t.Errorf("bad-request record = %+v", rec)
	}

	// The qlog counters surface in the Prometheus exposition.
	prom := get(t, s, "/metrics/prom").Body.String()
	if !strings.Contains(prom, "geoserve_qlog_records_total 3") {
		t.Errorf("exposition missing qlog counters:\n%s", prom)
	}
}

// TestQlogLinesAreJSON sends hostnames holding a control byte, DEL and
// invalid UTF-8, in a query string and in a body only the encoding/json
// fallback reads: every query-log line must still be JSON.
func TestQlogLinesAreJSON(t *testing.T) {
	var buf bytes.Buffer
	ql, err := qlog.New(qlog.Options{W: &buf, Clock: func() time.Time { return time.UnixMicro(42) }})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(testIndex(t))
	s.enableQlog(ql)
	for _, host := range []string{"a%01b", "a%7Fb", "a%FFb"} {
		get(t, s, "/v1/explain?hostname="+host)
	}
	postJSON(t, s, "/v1/geolocate", `{"hostname":"a\u0001b"}`)

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("qlog has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Errorf("query-log line is not JSON: %s", line)
		}
	}
}
