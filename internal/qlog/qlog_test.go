package qlog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// frozen returns a clock pinned to a fixed instant, mirroring the
// obs.FrozenClock contract so qlog output is byte-stable in goldens.
func frozen(us int64) func() time.Time {
	return func() time.Time { return time.UnixMicro(us) }
}

// TestRecordRendering pins the serialized bytes: fixed field order,
// omitted empty optionals, quoted escaping.
func TestRecordRendering(t *testing.T) {
	var buf bytes.Buffer
	l, err := New(Options{W: &buf, Clock: frozen(1700000000000000)})
	if err != nil {
		t.Fatal(err)
	}
	l.Log(Record{
		Front:      "http",
		Op:         "POST /v1/geolocate",
		ID:         l.NextID(),
		Hostname:   "ae-1.cr1.iad2.transitnet.net",
		Source:     "192.0.2.7:4242",
		Status:     200,
		Outcome:    "ok",
		DurUS:      137,
		Generation: 3,
	})
	l.Log(Record{Front: "dns", Op: "TXT", Status: 3, Outcome: "nxdomain"})
	want := `{"ts_us":1700000000000000,"id":"q1","front":"http","op":"POST /v1/geolocate",` +
		`"hostname":"ae-1.cr1.iad2.transitnet.net","source":"192.0.2.7:4242",` +
		`"status":200,"outcome":"ok","dur_us":137,"generation":3}` + "\n" +
		`{"ts_us":1700000000000000,"front":"dns","op":"TXT","status":3,"outcome":"nxdomain","dur_us":0}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("rendering:\n got: %q\nwant: %q", got, want)
	}
}

// TestEscaping: hostnames and sources with JSON metacharacters must
// not corrupt the line structure.
func TestEscaping(t *testing.T) {
	var buf bytes.Buffer
	l, err := New(Options{W: &buf, Clock: frozen(1)})
	if err != nil {
		t.Fatal(err)
	}
	l.Log(Record{Front: "http", Op: "GET /v1/explain", Hostname: "evil\"host\n.example"})
	want := `{"ts_us":1,"front":"http","op":"GET /v1/explain","hostname":"evil\"host\n.example","dur_us":0}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("escaping:\n got: %q\nwant: %q", got, want)
	}

	// A control byte, DEL and invalid UTF-8 still make a JSON line,
	// which decodes as encoding/json would: U+FFFD for the bad byte.
	buf.Reset()
	l.Log(Record{Front: "http", Op: "GET /v1/explain", Hostname: "a\x01b\x7fc\xffd"})
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("line is not JSON: %s", buf.Bytes())
	}
	var rec struct{ Hostname string }
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if want := "a\x01b\x7fc\ufffdd"; rec.Hostname != want {
		t.Errorf("hostname decodes to %q, want %q", rec.Hostname, want)
	}
}

// FuzzAppendRecord: for any record, a serialized record is one
// newline-terminated JSON line that decodes to the record's fields,
// each byte of invalid UTF-8 read back as U+FFFD as encoding/json
// writes it.
func FuzzAppendRecord(f *testing.F) {
	f.Add(int64(1700000000000000), "http", "POST /v1/geolocate", "q1", "ae-1.cr1.iad2.transitnet.net", "192.0.2.7:4242", 200, "ok", int64(137), uint64(3))
	f.Add(int64(0), "dns", "TXT", "", "", "", 0, "", int64(0), uint64(0))
	f.Add(int64(-1), "a\"b\\c", "\b\f\n\r\t", "\x00\x1f\x7f", "a\x01b\x7fc\xffd", "a\u2028b\u2029c", -3, "\xed\xa0\x80", int64(-1), uint64(1<<63))
	f.Fuzz(func(t *testing.T, ts int64, front, op, id, hostname, source string, status int, outcome string, dur int64, gen uint64) {
		r := Record{Front: front, Op: op, ID: id, Hostname: hostname, Source: source,
			Status: status, Outcome: outcome, DurUS: dur, Generation: gen}
		line := appendRecord(nil, ts, r)
		if bytes.IndexByte(line, '\n') != len(line)-1 {
			t.Fatalf("not one newline-terminated line: %q", line)
		}
		if !json.Valid(line) {
			t.Fatalf("not JSON: %q", line)
		}
		type decoded struct {
			TS         int64  `json:"ts_us"`
			ID         string `json:"id"`
			Front      string `json:"front"`
			Op         string `json:"op"`
			Hostname   string `json:"hostname"`
			Source     string `json:"source"`
			Status     int    `json:"status"`
			Outcome    string `json:"outcome"`
			DurUS      int64  `json:"dur_us"`
			Generation uint64 `json:"generation"`
		}
		var got decoded
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		// Converting to runes turns each invalid byte into U+FFFD.
		valid := func(s string) string { return string([]rune(s)) }
		want := decoded{TS: ts, ID: valid(id), Front: valid(front), Op: valid(op),
			Hostname: valid(hostname), Source: valid(source), Status: status,
			Outcome: valid(outcome), DurUS: dur, Generation: gen}
		if got != want {
			t.Errorf("%q decodes to\n%+v, want\n%+v", line, got, want)
		}
	})
}

// TestSampling: 1-in-N keeps exactly the 1st, N+1th, ... queries —
// deterministic, not probabilistic — and ids count every query.
func TestSampling(t *testing.T) {
	var buf bytes.Buffer
	l, err := New(Options{W: &buf, Sample: 3, Clock: frozen(1)})
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for i := 0; i < 10; i++ {
		if id := l.NextID(); id != "" {
			kept = append(kept, id)
			l.Log(Record{Front: "dns", Op: "TXT", ID: id})
		}
	}
	if got := strings.Join(kept, ","); got != "q1,q4,q7,q10" {
		t.Errorf("kept ids %s at sample=3, want q1,q4,q7,q10", got)
	}
	if got := strings.Count(buf.String(), "\n"); got != 4 {
		t.Errorf("kept %d of 10 at sample=3, want 4", got)
	}
	st := l.Stats()
	if st.Logged != 4 || st.Skipped != 6 {
		t.Errorf("stats = %+v, want logged=4 skipped=6", st)
	}
}

// TestRotation: the live file never exceeds MaxBytes once rotation has
// something to rotate; the previous generation survives as <path>.1.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "query.log")
	l, err := New(Options{Path: path, MaxBytes: 200, Clock: frozen(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		l.Log(Record{Front: "http", Op: "POST /v1/geolocate", Outcome: "ok"})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	live, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if live.Size() > 200 {
		t.Errorf("live file %d bytes exceeds MaxBytes=200", live.Size())
	}
	old, err := os.Stat(path + ".1")
	if err != nil {
		t.Fatalf("rotated file missing: %v", err)
	}
	if old.Size() == 0 {
		t.Error("rotated file is empty")
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Error("no rotations counted")
	}
}

// TestAppendAcrossReopen: a reopened logger honors the existing file
// size so MaxBytes bounds the file across restarts, not per process.
func TestAppendAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "query.log")
	for i := 0; i < 2; i++ {
		l, err := New(Options{Path: path, Clock: frozen(1)})
		if err != nil {
			t.Fatal(err)
		}
		l.Log(Record{Front: "dns", Op: "TXT"})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 2 {
		t.Errorf("file has %d lines after two sessions, want 2", got)
	}
}

// TestNilLoggerZeroAlloc is the acceptance criterion: with qlog
// disabled (nil logger), the per-query calls handlers make must not
// allocate at all.
func TestNilLoggerZeroAlloc(t *testing.T) {
	var l *Logger
	r := Record{Front: "http", Op: "POST /v1/geolocate", Hostname: "h", Status: 200, DurUS: 5}
	allocs := testing.AllocsPerRun(1000, func() {
		id := l.NextID()
		_ = id
		l.Log(r)
		_ = l.Enabled()
		_ = l.Stats()
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %v per query, want 0", allocs)
	}
}

// TestNilSafety: every method on a nil logger is a no-op, including
// Close.
func TestNilSafety(t *testing.T) {
	var l *Logger
	if l.Enabled() {
		t.Error("nil logger reports enabled")
	}
	if id := l.NextID(); id != "" {
		t.Errorf("nil NextID = %q, want empty", id)
	}
	if err := l.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
	if st := l.Stats(); st != (Stats{}) {
		t.Errorf("nil Stats = %+v", st)
	}
}

// TestOptionValidation: exactly one sink.
func TestOptionValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("no sink accepted")
	}
	if _, err := New(Options{Path: "x", W: &bytes.Buffer{}}); err == nil {
		t.Error("two sinks accepted")
	}
}

// TestConcurrentLog: records from concurrent writers interleave as
// whole lines (run under -race in CI).
func TestConcurrentLog(t *testing.T) {
	var buf bytes.Buffer
	l, err := New(Options{W: &buf, Clock: frozen(1)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Log(Record{Front: "dns", Op: "TXT", ID: l.NextID()})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, `{"ts_us":`) || !strings.HasSuffix(ln, "}") {
			t.Fatalf("torn line: %q", ln)
		}
	}
}
