package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// benchConfig is the part of BENCHMARK.json the benchmark reads: the
// metrics it must print, with their units and bounds.
type benchConfig struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBench(root string) (*benchConfig, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c benchConfig
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// runTraced is the diagnostic run behind the per-layer metrics. Both
// daemons serve the workload's stream: an untraced single and batch
// phase (daemon CPU from /proc, geoserve's /metrics and reload time),
// then a traced replay of the single phase. The serving layers are then
// timed in isolation on a prefix of the stream, and the learning
// layers on the run's corpus.
func runTraced(e *env, workload string, spec workloadSpec) (*result, error) {
	learned, err := prepare(e)
	if err != nil {
		return nil, err
	}
	queries, err := dnsQueries(e.hosts)
	if err != nil {
		return nil, err
	}
	rp, err := newReplica(e.snap, e.hosts, queries)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, e.seed))
	if err := os.Remove(tracePath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}

	var attempted, failed int64
	served := map[string]*serveResult{}
	nextID, written := 0, 0
	for _, name := range []string{"http", "dns"} {
		f, err := newFront(e, name)
		if err != nil {
			return nil, err
		}
		q := e.seconds / 4
		sr, err := runServe(e, f, serveOpts{
			kind: spec.kind, seed: e.seed, conns: e.conns(),
			warm: 500 * time.Millisecond, single: q, batch: q, traced: q, diag: true,
		}, rp)
		if err != nil {
			return nil, err
		}
		attempted += sr.attempted()
		failed += sr.failed()
		n, err := writeTrace(tracePath, name, sr.recs, &nextID)
		if err != nil {
			return nil, err
		}
		written += n
		served[name] = sr
	}
	e.logf("trace: %d spans recorded, %d written to %s", nextID, written, tracePath)

	m := map[string]float64{"hoiho.wall_s": learned.wall, "bench.cal_ns": learned.cal}
	if err := frontMetrics(e, m, served, spec.primary); err != nil {
		return nil, err
	}
	ids := streamPrefix(spec.kind, len(e.hosts), e.seed, 20000)
	if err := probeServing(m, e.snap, e.hosts, queries, ids); err != nil {
		return nil, err
	}
	if err := probeLearning(m, e.corpusDir); err != nil {
		return nil, err
	}
	return newResult(attempted, failed, m, e.bench.PerLayer)
}

// layersOf lists, per front, the in-process layers that run on every
// single-lookup request, in request order: their span medians plus the
// residual make up the daemon's p50_us (geoserve.p50_us, geodns.p50_us).
var layersOf = map[string][]string{
	"http": {"geoloc.lookup", "obs.span"},
	"dns":  {"dnswire.unpack", "geoloc.lookup", "geoloc.answer", "dnswire.pack", "obs.span"},
}

// daemonOf names each front's daemon, the prefix of its metrics.
var daemonOf = map[string]string{"http": "geoserve", "dns": "geodns"}

// frontMetrics derives the daemon, trace and span-based layer metrics
// from the runs of both daemons, and prints how each daemon's p50_us
// splits into layers.
func frontMetrics(e *env, m map[string]float64, served map[string]*serveResult, primary string) error {
	h, d := served["http"], served["dns"]
	hs, ds := collectSpans(h.recs), collectSpans(d.recs)
	p50 := map[string]float64{}
	var err error
	for name, sr := range served {
		// The wall-clock figures a client of the daemon sees, which a
		// shared host moves too much to bound (README.md).
		d := daemonOf[name]
		if p50[name], err = sr.single.latencyUS(50); err != nil {
			return err
		}
		m[d+".p50_us"] = p50[name]
		if m[d+".p90_us"], err = sr.single.latencyUS(90); err != nil {
			return err
		}
		if m[d+".batch_p50_us"], err = sr.batch.latencyUS(50); err != nil {
			return err
		}
		m[d+".wall_lookups_per_s"] = sr.single.opRate
	}
	if m["geoserve.p99_us"], err = h.single.latencyUS(99); err != nil {
		return err
	}
	if m["geodns.p99_us"], err = d.single.latencyUS(99); err != nil {
		return err
	}
	m["geoserve.cpu_us_per_lookup"] = cpuPerUS(h.single.daemonCPU, h.single.ops)
	m["geoserve.batch_cpu_us_per_host"] = cpuPerUS(h.batch.daemonCPU, h.batch.hosts)
	m["geoserve.cache_hit_frac"] = h.cacheHitFrac
	m["geoserve.front_us"] = p50["http"] - hs.medianNS("geoloc.lookup")/1e3
	m["geoserve.reload_ms"] = h.reloadMS
	m["geodns.cpu_us_per_lookup"] = cpuPerUS(d.single.daemonCPU, d.single.ops)
	m["geodns.tcp_cpu_us_per_query"] = cpuPerUS(d.batch.daemonCPU, d.batch.hosts)

	p := served[primary]
	ps := collectSpans(p.recs)
	m["bench.client_cpu_us_per_op"] = cpuPerUS(p.single.clientCPU, p.single.ops)
	m["bench.steal_frac"] = p.single.steal
	m["trace.overhead_frac"] = 1 - p.traced.opRate/p.single.opRate

	m["geoloc.lookup_ns"] = ps.medianNS("geoloc.lookup")
	m["geoloc.answer_ns"] = ds.medianNS("geoloc.answer")
	m["psl.registrable_ns"] = ps.medianNS("psl.registrable")
	m["core.resolve_ns"] = ps.medianNS("core.resolve")
	m["obs.span_ns"] = ps.medianNS("obs.span")
	var perTry []float64
	var tried float64
	for i, dur := range ps.dur["rex.match"] {
		if n := ps.n["rex.match"][i]; n > 0 {
			perTry = append(perTry, dur/n)
			tried += n
		}
	}
	m["rex.match_ns"] = median(perTry)
	m["rex.tried_per_miss"] = tried / float64(len(ps.dur["geoloc.locate"]))
	var matched float64
	for _, n := range ps.n["geoloc.locate"] {
		matched += n
	}
	m["rex.match_frac"] = matched / tried

	m["dnswire.unpack_ns"] = ds.medianNS("dnswire.unpack")
	m["dnswire.pack_ns"] = ds.medianNS("dnswire.pack")
	var bytes float64
	for _, n := range ds.n["dnswire.pack"] {
		bytes += n
	}
	m["dnswire.reply_bytes"] = bytes / float64(len(ds.n["dnswire.pack"]))
	handle := ds.medianNS("dnsserve.handle")
	m["dnsserve.handle_ns"] = handle
	m["dnsserve.residual_ns"] = handle - sumMedians(ds, layersOf["dns"])
	m["dnsserve.transport_us"] = p50["dns"] - handle/1e3

	for _, name := range []string{"http", "dns"} {
		st := collectSpans(served[name].recs)
		e.logf("%s.p50_us %.1f = layers below + residual:", daemonOf[name], p50[name])
		for _, l := range layersOf[name] {
			e.logf("  %-16s %9.3f us (median self time, %d spans)", l, median(append([]float64(nil), st.self[l]...))/1e3, len(st.self[l]))
		}
		res := p50[name] - sumMedians(st, layersOf[name])/1e3
		e.logf("  %-16s %9.3f us", "residual", res)
		if name == primary {
			m["trace.residual_us"] = res
		}
	}
	return nil
}

// sumMedians adds the median self times of the named spans, in ns.
func sumMedians(st spanStats, names []string) float64 {
	var sum float64
	for _, n := range names {
		sum += median(append([]float64(nil), st.self[n]...))
	}
	return sum
}
