package hoiho_bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"hoiho/internal/dnswire"
	"hoiho/internal/promexp"
)

// TestCLIWorkflow exercises the complete command-line workflow end to
// end: generate a corpus, learn conventions, publish them, apply them
// without measurement data, and render the validation website.
func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	bin := t.TempDir()
	data := filepath.Join(t.TempDir(), "corpus")
	site := filepath.Join(t.TempDir(), "site")
	ncFile := filepath.Join(t.TempDir(), "conventions.txt")

	build := func(name string) string { return buildBinary(t, bin, name) }
	run := func(path string, args ...string) string {
		cmd := exec.Command(path, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(path), args, err, out)
		}
		return string(out)
	}

	geosynth := build("geosynth")
	hoiho := build("hoiho")
	geoweb := build("geoweb")
	geodict := build("geodict")
	geosnap := build("geosnap")

	// 1. Generate a small IPv6-preset corpus.
	out := run(geosynth, "-preset", "ipv6-nov2020", "-out", data)
	if !strings.Contains(out, "routers") {
		t.Errorf("geosynth output: %s", out)
	}
	for _, f := range []string{"corpus.nodes", "corpus.names", "corpus.geo",
		"corpus.links", "rtt.matrix", "truth.hints", "asn.map"} {
		if _, err := os.Stat(filepath.Join(data, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}

	// 2. Learn conventions and publish them.
	out = run(hoiho, "-corpus", data, "-usable-only", "-write-nc", ncFile, "-names", "-asn")
	if !strings.Contains(out, "good") || !strings.Contains(out, "regex") {
		t.Errorf("hoiho learn output missing conventions:\n%s", out)
	}
	if !strings.Contains(out, "router-name conventions") ||
		!strings.Contains(out, "ASN conventions") {
		t.Errorf("hoiho -names/-asn output missing:\n%s", out)
	}

	// 3. Find a usable suffix and one of its hostnames from the corpus.
	ncText, err := os.ReadFile(ncFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ncText), "suffix ") {
		t.Fatalf("conventions file empty:\n%s", ncText)
	}

	// 4. Apply the published conventions without the corpus, and ask
	// for the decision trace behind the answer.
	suffix, host := pickGeolocatable(t, string(ncText), data)
	if host != "" {
		out = run(hoiho, "-nc", ncFile, "-suffix", suffix, "-geolocate", host)
		if !strings.Contains(out, "->") {
			t.Errorf("hoiho -nc geolocate output:\n%s", out)
		}
		out = run(hoiho, "-nc", ncFile, "-suffix", suffix, "-explain", host)
		for _, want := range []string{"hostname:", "suffix:", "regex 1:", "verdict:"} {
			if !strings.Contains(out, want) {
				t.Errorf("hoiho -explain output missing %q:\n%s", want, out)
			}
		}
	}

	// 5. Compile the conventions into a snapshot and apply it — the
	// third input kind of the shared Source API, and the one geoserve
	// cold-starts from in production.
	snapFile := filepath.Join(t.TempDir(), "index.snap")
	out = run(geosnap, "-nc", ncFile, "-verify", "-o", snapFile)
	if !strings.Contains(out, "wrote") {
		t.Errorf("geosnap output: %s", out)
	}
	if fi, err := os.Stat(snapFile); err != nil || fi.Size() == 0 {
		t.Errorf("snapshot file missing or empty: %v", err)
	}
	if host != "" {
		out = run(hoiho, "-snapshot", snapFile, "-suffix", suffix, "-geolocate", host)
		if !strings.Contains(out, "->") {
			t.Errorf("hoiho -snapshot geolocate output:\n%s", out)
		}
	}

	// 6. Render the website.
	out = run(geoweb, "-nc", ncFile, "-out", site)
	if !strings.Contains(out, "pages") {
		t.Errorf("geoweb output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(site, "index.html")); err != nil {
		t.Errorf("missing index.html: %v", err)
	}

	// 7. Dictionary queries answer.
	out = run(geodict, "-iata", "ash")
	if !strings.Contains(out, "Nashua") {
		t.Errorf("geodict -iata ash: %s", out)
	}

	// 8. Serve the snapshot over DNS and HTTP and compare the fronts:
	// the TXT answer (UDP and TCP byte-identical) must agree with the
	// /v1/geolocate JSON for the same hostname.
	if host != "" {
		geodns := build("geodns")
		geoserve := build("geoserve")
		dns := startDaemon(t, geodns,
			"-snapshot", snapFile, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0")
		defer dns.stop()
		web := startDaemon(t, geoserve, "-snapshot", snapFile, "-addr", "127.0.0.1:0")
		defer web.stop()
		dnsAddr, adminAddr, httpAddr := dns.addr, dns.admin, web.addr
		if adminAddr == "" {
			t.Fatal("geodns never logged its admin-plane address")
		}

		pkt := packQuery(t, host+".", dnswire.TypeTXT)
		udpResp := dnsExchangeUDP(t, dnsAddr, pkt)
		tcpResp := dnsExchangeTCP(t, dnsAddr, pkt)
		if !bytes.Equal(udpResp, tcpResp) {
			t.Errorf("UDP and TCP answers differ:\n udp %x\n tcp %x", udpResp, tcpResp)
		}
		r, err := dnswire.Unpack(udpResp)
		if err != nil {
			t.Fatalf("geodns answer does not decode: %v", err)
		}
		if r.RCode != dnswire.RCodeNoError || len(r.Answers) != 1 {
			t.Fatalf("geodns answer for %s: rcode %v, %d answers", host, r.RCode, len(r.Answers))
		}
		txt, ok := r.Answers[0].Data.(dnswire.TXT)
		if !ok {
			t.Fatalf("geodns answer is %T, want TXT", r.Answers[0].Data)
		}

		// An unknown hostname is NXDOMAIN, authoritatively.
		miss, err := dnswire.Unpack(dnsExchangeUDP(t, dnsAddr,
			packQuery(t, "no.such.host.example.", dnswire.TypeTXT)))
		if err != nil {
			t.Fatal(err)
		}
		if miss.RCode != dnswire.RCodeNXDomain || !miss.Authoritative {
			t.Errorf("miss rcode = %v authoritative = %v", miss.RCode, miss.Authoritative)
		}

		// HTTP equivalence: the same snapshot behind /v1/geolocate.
		resp, err := http.Post("http://"+httpAddr+"/v1/geolocate", "application/json",
			strings.NewReader(fmt.Sprintf("{%q:%q}", "hostname", host)))
		if err != nil {
			t.Fatal(err)
		}
		var httpRes struct {
			Located  bool `json:"located"`
			Location *struct {
				City    string  `json:"city"`
				Country string  `json:"country"`
				Lat     float64 `json:"lat"`
				Long    float64 `json:"long"`
			} `json:"location"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&httpRes); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Error(err)
		}
		if !httpRes.Located || httpRes.Location == nil {
			t.Fatalf("geoserve does not locate %s but geodns does", host)
		}
		kv := map[string]string{}
		for _, s := range txt {
			if k, v, ok := strings.Cut(s, "="); ok {
				kv[k] = v
			}
		}
		if kv["city"] != httpRes.Location.City || kv["country"] != httpRes.Location.Country {
			t.Errorf("fronts disagree: DNS %v vs HTTP %+v", kv, httpRes.Location)
		}
		if kv["lat"] != fmt.Sprintf("%g", httpRes.Location.Lat) ||
			kv["long"] != fmt.Sprintf("%g", httpRes.Location.Long) {
			t.Errorf("coordinates disagree: DNS %v vs HTTP %+v", kv, httpRes.Location)
		}

		// 9. Explain equivalence: the /v1/explain JSON document and the
		// hoiho -explain-json line for the same hostname over the same
		// snapshot must be byte-identical — one trace, two fronts.
		exResp, err := http.Get("http://" + httpAddr + "/v1/explain?hostname=" + host)
		if err != nil {
			t.Fatal(err)
		}
		exBody, err := io.ReadAll(exResp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := exResp.Body.Close(); err != nil {
			t.Error(err)
		}
		if exResp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/explain status %d: %s", exResp.StatusCode, exBody)
		}
		cliOut := run(hoiho, "-snapshot", snapFile, "-suffix", suffix, "-explain", host, "-explain-json")
		cliLines := strings.Split(strings.TrimRight(cliOut, "\n"), "\n")
		cliJSON := cliLines[len(cliLines)-1]
		if httpJSON := strings.TrimRight(string(exBody), "\n"); cliJSON != httpJSON {
			t.Errorf("explain fronts disagree:\n cli  %s\n http %s", cliJSON, httpJSON)
		}

		// 10. The geodns admin plane serves liveness and a conformant
		// Prometheus exposition that reflects the queries above.
		hz, err := http.Get("http://" + adminAddr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Status string `json:"status"`
			Commit string `json:"commit"`
		}
		if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		if err := hz.Body.Close(); err != nil {
			t.Error(err)
		}
		if health.Status != "ok" || health.Commit == "" {
			t.Errorf("geodns healthz = %+v", health)
		}
		pm, err := http.Get("http://" + adminAddr + "/metrics/prom")
		if err != nil {
			t.Fatal(err)
		}
		promBody, err := io.ReadAll(pm.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := pm.Body.Close(); err != nil {
			t.Error(err)
		}
		if err := promexp.Conform(promBody); err != nil {
			t.Errorf("geodns admin exposition not conformant: %v\n%s", err, promBody)
		}
		for _, want := range []string{
			"geodns_queries_total",
			`geodns_responses_total{outcome="noerror"}`,
			"geodns_edns_udp_size_bytes_bucket",
			"geodns_index_generation 1",
		} {
			if !strings.Contains(string(promBody), want) {
				t.Errorf("geodns exposition missing %q\n%s", want, promBody)
			}
		}
	}
}

// TestDaemonCountersSurviveReload scrapes both daemons' /metrics/prom,
// reloads them with SIGHUP, and scrapes again: no *_index_*_total
// sample, per-suffix and per-class series included, may go down. Run
// with default flags, each exposition has its runtime gauges and no
// span family.
func TestDaemonCountersSurviveReload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	bin := t.TempDir()
	nc := filepath.Join("testdata", "golden", "conventions.txt")
	dns := startDaemon(t, buildBinary(t, bin, "geodns"),
		"-nc", nc, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0")
	defer dns.stop()
	web := startDaemon(t, buildBinary(t, bin, "geoserve"), "-nc", nc, "-addr", "127.0.0.1:0")
	defer web.stop()

	hosts := goldenHostnames(t, 40)
	body, err := json.Marshal(map[string][]string{"hostnames": hosts})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+web.addr+"/v1/geolocate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch lookup: status %d, %v", resp.StatusCode, err)
	}
	for _, host := range hosts {
		dnsExchangeUDP(t, dns.addr, packQuery(t, host+".", dnswire.TypeTXT))
	}

	for _, d := range []struct {
		name, http string
		proc       daemonProc
	}{{"geoserve", web.addr, web}, {"geodns", dns.admin, dns}} {
		body := scrapeProm(t, d.http)
		if strings.Contains(body, "_span_") {
			t.Errorf("%s: /metrics/prom has a span family:\n%s", d.name, body)
		}
		if !strings.Contains(body, "\n"+d.name+"_runtime_goroutines ") {
			t.Errorf("%s: /metrics/prom has no %s_runtime_goroutines sample:\n%s", d.name, d.name, body)
		}
		before := indexCounters(t, body)
		if before[d.name+"_index_matched_total"] == 0 {
			t.Fatalf("%s located none of the golden hostnames", d.name)
		}
		if err := d.proc.cmd.Process.Signal(syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
		waitGeneration(t, d.http, 2)
		after := indexCounters(t, scrapeProm(t, d.http))
		for series, n := range before {
			if after[series] < n {
				t.Errorf("%s: %s went from %g to %g across a reload", d.name, series, n, after[series])
			}
		}
	}
}

// TestHoihoTelemetryOnLookupMiss asks hoiho to geolocate a hostname
// whose suffix has no convention: it must exit 1 and still leave the
// learning run's trace file and -tracesummary table behind.
func TestHoihoTelemetryOnLookupMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.jsonl")
	cmd := exec.Command(buildBinary(t, dir, "hoiho"), "-corpus", goldenDir,
		"-trace", trace, "-tracesummary", "-geolocate", "xe-1.core9.ash1.he.net")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("hoiho exited with %v, want exit status 1\n%s", err, stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), `no convention learned for suffix "he.net"`) {
		t.Errorf("stderr lacks the lookup error:\n%s", stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), "suffix_groups=") {
		t.Errorf("stderr lacks the -tracesummary table:\n%s", stderr.Bytes())
	}
	spans, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(spans), `"name":"run"`) {
		t.Errorf("trace lacks the learning run's span:\n%s", spans)
	}
}

// TestHoihoASNMapCheckedFirst asks for ASN conventions from a corpus
// without asn.map: hoiho must exit 1 on the missing file before it
// learns, so no convention is printed.
func TestHoihoASNMapCheckedFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	dir := t.TempDir()
	cmd := exec.Command(buildBinary(t, dir, "hoiho"), "-corpus", goldenDir,
		"-asn", "-trace", filepath.Join(dir, "t.jsonl"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("hoiho exited with %v, want exit status 1\n%s", err, stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), "asn.map: no such file or directory") {
		t.Errorf("stderr lacks the asn.map error:\n%s", stderr.Bytes())
	}
	if strings.Contains(stdout.String(), "TP=") {
		t.Errorf("hoiho printed conventions before failing:\n%s", stdout.Bytes())
	}
}

// TestHoihoUsableOnlyMatchesDaemons asks hoiho to geolocate a hostname
// whose only convention is poor: with -usable-only it must answer as
// geoserve and geodns -usable-only do, which do not serve that
// convention, and without the flag it still locates the hostname.
func TestHoihoUsableOnlyMatchesDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	hoiho := buildBinary(t, t.TempDir(), "hoiho")
	nc := filepath.Join(goldenDir, "conventions.txt")
	const host = "xe-1-2-0.r04.mtrlpq2.ca.bb.isp01.de"
	out, err := exec.Command(hoiho, "-nc", nc, "-usable-only", "-geolocate", host).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("hoiho -usable-only exited with %v, want exit status 1\n%s", err, out)
	}
	if strings.Contains(string(out), "Montreal") {
		t.Errorf("hoiho -usable-only located %s through a poor convention:\n%s", host, out)
	}
	out, err = exec.Command(hoiho, "-nc", nc, "-geolocate", host).CombinedOutput()
	if err != nil || !strings.Contains(string(out), host+" -> Montreal, QC, CA") {
		t.Errorf("hoiho without -usable-only: %v\n%s", err, out)
	}
}

// TestHoihoWriteNCAtomic holds the destination open while hoiho
// -write-nc replaces it: the open descriptor must still read the old
// bytes, so a daemon reloading mid-write never reads a prefix.
func TestHoihoWriteNCAtomic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	dir := t.TempDir()
	hoiho := buildBinary(t, dir, "hoiho")
	dst := filepath.Join(dir, "conventions.txt")
	old := []byte("# the previous conventions file\n")
	if err := os.WriteFile(dst, old, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nc := filepath.Join(goldenDir, "conventions.txt")
	if out, err := exec.Command(hoiho, "-nc", nc, "-write-nc", dst).CombinedOutput(); err != nil {
		t.Fatalf("hoiho -write-nc: %v\n%s", err, out)
	}
	got := make([]byte, 4096)
	n, err := f.ReadAt(got, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:n], old) {
		t.Errorf("the open destination reads %d bytes that are not the old %q", n, old)
	}
	written, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(nc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, want) {
		t.Errorf("-write-nc of the golden conventions did not reproduce them:\n%s", written)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("%s holds %d entries, want the binary and the conventions file", dir, len(entries))
	}
}

// TestGeosnapVerifyRefusesUnreachableSuffix runs geosnap -verify over a
// conventions file holding a co.uk convention beside a valid he.net
// one. No hostname dispatches to co.uk, so the index build that boot
// and reload also run refuses the file, and verify must fail naming it.
func TestGeosnapVerifyRefusesUnreachableSuffix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	geosnap := buildBinary(t, t.TempDir(), "geosnap")
	cmd := exec.Command(geosnap, "-nc", filepath.Join("testdata", "couk.conventions.txt"), "-verify")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("geosnap -verify exited with %v, want exit status 1\n%s%s", err, stdout.Bytes(), stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), "suffix co.uk: unreachable") {
		t.Errorf("stderr does not name co.uk:\n%s", stderr.Bytes())
	}
	if strings.Contains(stdout.String(), "ok:") {
		t.Errorf("geosnap -verify passed the file:\n%s", stdout.Bytes())
	}
}

// TestGeodnsRefusesWideWireFlag starts geodns with flag values wider
// than the wire fields they fill: each must be a usage error (exit 2,
// the flag named) before anything is served, not a value that wraps.
// A geodns that serves anyway is killed after a minute and fails.
func TestGeodnsRefusesWideWireFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	geodns := buildBinary(t, t.TempDir(), "geodns")
	nc := filepath.Join(goldenDir, "conventions.txt")
	for _, arg := range [][]string{{"-udp-size", "70000"}, {"-udp-size", "65536"}, {"-ttl", "4294967296"}} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, geodns, append([]string{"-nc", nc, "-addr", "127.0.0.1:0"}, arg...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("geodns %s %s exited with %v, want exit status 2\n%s", arg[0], arg[1], err, stderr.Bytes())
		}
		if !strings.Contains(stderr.String(), arg[0]+" "+arg[1]) {
			t.Errorf("stderr does not name %s %s:\n%s", arg[0], arg[1], stderr.Bytes())
		}
	}
}

// TestHoiholintTypeErrorFails runs hoiholint over a module that does
// not type-check: the analyzers match calls and types through the type
// checker, so the run must fail and name the package and the error
// rather than pass with the package's findings lost.
func TestHoiholintTypeErrorFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	hoiholint := buildBinary(t, t.TempDir(), "hoiholint")
	mod := t.TempDir()
	for name, content := range map[string]string{
		"go.mod": "module example.test/bad\n\ngo 1.22\n",
		"bad.go": "package bad\n\nvar x int = \"s\"\n",
	} {
		if err := os.WriteFile(filepath.Join(mod, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(hoiholint, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("hoiholint exited with %v, want exit status 1\n%s", err, out)
	}
	for _, want := range []string{"example.test/bad", "bad.go:3:", "cannot use \"s\""} {
		if !strings.Contains(string(out), want) {
			t.Errorf("hoiholint output lacks %q:\n%s", want, out)
		}
	}
}

// TestHoiholintOutputFile runs hoiholint -o without -sarif over a
// module with one maporder finding: the human report goes to the file,
// and stdout stays empty.
func TestHoiholintOutputFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	hoiholint := buildBinary(t, t.TempDir(), "hoiholint")
	mod := t.TempDir()
	for name, content := range map[string]string{
		"go.mod": "module example.test/report\n\ngo 1.22\n",
		"report.go": "package report\n\nimport \"fmt\"\n\n" +
			"func printAll(m map[string]int) {\n\tfor k, v := range m {\n\t\tfmt.Println(k, v)\n\t}\n}\n",
	} {
		if err := os.WriteFile(filepath.Join(mod, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(hoiholint, "-o", "report.txt", "./...")
	cmd.Dir = mod
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("hoiholint exited with %v, want exit status 1", err)
	}
	report, err := os.ReadFile(filepath.Join(mod, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "report.go:6:2: maporder:"; !strings.Contains(string(report), want) || bytes.Count(report, []byte("\n")) != 1 {
		t.Errorf("report.txt = %q, want one line holding %q", report, want)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
}

// goldenHostnames returns the first n hostnames of the golden corpus.
func goldenHostnames(t *testing.T, n int) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "corpus.names"))
	if err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) > 0 && len(hosts) < n {
			hosts = append(hosts, f[len(f)-1])
		}
	}
	return hosts
}

// scrapeProm returns the /metrics/prom exposition served at addr.
func scrapeProm(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// indexCounters returns every *_index_*_total sample of an exposition,
// keyed by series (name and labels).
func indexCounters(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:i]
		name, _, _ := strings.Cut(series, "{")
		if !strings.Contains(name, "_index_") || !strings.HasSuffix(name, "_total") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// waitGeneration polls /healthz at addr until it reports generation gen.
func waitGeneration(t *testing.T, addr string, gen uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h struct {
			Generation uint64 `json:"generation"`
		}
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if h.Generation == gen {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still at generation %d, want %d", addr, h.Generation, gen)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// buildBinary builds ./cmd/<name> into dir and returns its path.
func buildBinary(t *testing.T, dir, name string) string {
	t.Helper()
	out := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, msg)
	}
	return out
}

// daemonProc is a server binary started by startDaemon.
type daemonProc struct {
	addr  string // the address it reported listening on
	admin string // its admin-plane address; empty unless logged before readiness
	cmd   *exec.Cmd
	stop  func() // SIGTERM, then wait for a clean exit
}

// startDaemon launches a server binary and returns it once it has
// logged its "listening on" line.
func startDaemon(t *testing.T, path string, args ...string) daemonProc {
	t.Helper()
	cmd := exec.Command(path, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	adminCh := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			// The admin line is logged before the listening line, so by
			// the time addrCh fires, adminCh is already filled if the
			// daemon has an admin plane.
			if i := strings.Index(line, "admin plane on http://"); i >= 0 {
				addr := line[i+len("admin plane on http://"):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				select {
				case adminCh <- addr:
				default:
				}
			}
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr := line[i+len("listening on "):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	stop := func() {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return // already stopped
		}
		<-drained
		if err := cmd.Wait(); err != nil {
			t.Errorf("%s did not shut down cleanly: %v", filepath.Base(path), err)
		}
	}
	select {
	case addr := <-addrCh:
		admin := ""
		select {
		case admin = <-adminCh:
		default:
		}
		return daemonProc{addr: addr, admin: admin, cmd: cmd, stop: stop}
	case <-time.After(30 * time.Second):
		stop()
		t.Fatalf("%s never reported its listen address", filepath.Base(path))
		return daemonProc{}
	}
}

func packQuery(t *testing.T, name string, typ dnswire.Type) []byte {
	t.Helper()
	m := &dnswire.Message{
		ID:               0x7357,
		RecursionDesired: true,
		Questions:        []dnswire.Question{{Name: name, Type: typ, Class: dnswire.ClassINET}},
		EDNS:             &dnswire.EDNS{UDPSize: 1232},
	}
	pkt, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func dnsExchangeUDP(t *testing.T, addr string, pkt []byte) []byte {
	t.Helper()
	c, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(pkt); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65536)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

func dnsExchangeTCP(t *testing.T, addr string, pkt []byte) []byte {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var lenbuf [2]byte
	binary.BigEndian.PutUint16(lenbuf[:], uint16(len(pkt)))
	if _, err := c.Write(append(lenbuf[:], pkt...)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, lenbuf[:]); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, binary.BigEndian.Uint16(lenbuf[:]))
	if _, err := io.ReadFull(c, resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// pickGeolocatable scans the names file for a hostname under a suffix
// that the conventions file covers.
func pickGeolocatable(t *testing.T, ncText, dataDir string) (string, string) {
	t.Helper()
	suffixes := map[string]bool{}
	for _, line := range strings.Split(ncText, "\n") {
		if strings.HasPrefix(line, "suffix ") {
			suffixes[strings.Fields(line)[1]] = true
		}
	}
	names, err := os.ReadFile(filepath.Join(dataDir, "corpus.names"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(names), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 4 {
			continue
		}
		host := fields[3]
		for suffix := range suffixes {
			if strings.HasSuffix(host, "."+suffix) {
				return suffix, host
			}
		}
	}
	return "", ""
}
