package main

import (
	"bytes"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/dnsserve"
	"hoiho/internal/dnswire"
	"hoiho/internal/geodict"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
	"hoiho/internal/psl"
)

// replica is the daemons' serving state rebuilt in-process, the way
// cmd/geoserve and cmd/geodns build theirs with default flags: an index
// over the snapshot with the default result cache and an always-on
// aggregate obs tracer, and for DNS a dnsserve.Server with rate
// limiting and the query log off.
type replica struct {
	hosts   []string
	queries [][]byte
	lookup  *geoloc.Index    // stands in for the daemon's Index.Lookup
	handle  *dnsserve.Server // stands in for geodns's HandlePacket, own index
	tracer  *obs.Tracer
	psl     *psl.List
	dict    *geodict.Dictionary
	learned map[learnedHint]bool // the index's learned-geohint overlay
	src     netip.Addr
}

// learnedHint is an entry of a convention's learned-geohint overlay,
// which the index consults before the dictionary.
type learnedHint struct {
	suffix string
	typ    geodict.HintType
	hint   string
}

func newReplica(snap []byte, hosts []string, queries [][]byte) (*replica, error) {
	tracer := obs.New(obs.Options{})
	lookup, err := geoloc.Load(bytes.NewReader(snap), geoloc.Options{Tracer: tracer})
	if err != nil {
		return nil, err
	}
	handleIx, err := geoloc.Load(bytes.NewReader(snap), geoloc.Options{Tracer: tracer})
	if err != nil {
		return nil, err
	}
	list, err := psl.Default()
	if err != nil {
		return nil, err
	}
	dict, err := geodict.Default()
	if err != nil {
		return nil, err
	}
	learned := map[learnedHint]bool{}
	for _, suffix := range lookup.Suffixes() {
		nc := lookup.Convention(suffix)
		for _, lh := range nc.Learned {
			learned[learnedHint{nc.Suffix, lh.Type, lh.Hint}] = true
		}
	}
	return &replica{
		hosts:   hosts,
		queries: queries,
		lookup:  lookup,
		handle:  dnsserve.New(handleIx, dnsserve.Config{TTL: 300, UDPSize: 1232, Tracer: tracer}),
		tracer:  tracer,
		psl:     list,
		dict:    dict,
		learned: learned,
		src:     netip.MustParseAddr("127.0.0.1"),
	}, nil
}

// warm runs ids through both replica caches so they start a traced
// replay in the state the daemon's cache is in after its warm-up.
func (rp *replica) warm(ids []int) {
	for _, id := range ids {
		rp.lookup.Lookup(rp.hosts[id])
		rp.handle.HandlePacket(rp.queries[id], rp.src, false)
	}
}

// replayHTTP records, under root, the layers geoserve runs for a
// single lookup: the index lookup and the route middleware's span.
func (rp *replica) replayHTTP(rec *recorder, root, id int) {
	l := rec.child(root, "geoloc.lookup")
	rp.lookup.Lookup(rp.hosts[id])
	rec.end(l)
	o := rec.child(root, "obs.span")
	sp := rp.tracer.Start("http")
	sp.SetKey("POST /v1/geolocate")
	sp.Count("requests", 1)
	sp.Count("status_2xx", 1)
	sp.End()
	rec.end(o)
	rp.replayLocate(rec, root, id)
}

// replayDNS records, under root, the layers geodns runs for a UDP TXT
// query: the whole handler, then its parts one by one.
func (rp *replica) replayDNS(rec *recorder, root, id int) {
	q := rp.queries[id]
	h := rec.child(root, "dnsserve.handle")
	rp.handle.HandlePacket(q, rp.src, false)
	rec.end(h)

	u := rec.child(root, "dnswire.unpack")
	m, err := dnswire.Unpack(q)
	rec.end(u)
	if err != nil || len(m.Questions) != 1 {
		return
	}
	l := rec.child(root, "geoloc.lookup")
	g, ok := rp.lookup.Lookup(m.Questions[0].Name)
	rec.end(l)

	a := rec.child(root, "geoloc.answer")
	var txt []string
	if ok {
		txt = geoloc.AnswerStrings(g)
		geoloc.PTRTarget(g)
	}
	rec.end(a)

	p := rec.child(root, "dnswire.pack")
	r := dnswire.Reply(m)
	r.Authoritative = true
	outcome := "nxdomain"
	if ok {
		outcome = "noerror"
		r.Answers = append(r.Answers, dnswire.RR{Name: m.Questions[0].Name, Class: dnswire.ClassINET, TTL: 300, Data: dnswire.TXT(txt)})
	} else {
		r.RCode = dnswire.RCodeNXDomain
	}
	out, _ := r.PackTruncated(1232)
	rec.end(p)
	rec.spans[p].n = int32(len(out))

	o := rec.child(root, "obs.span")
	sp := rp.tracer.Start("dnsquery")
	sp.Count("queries", 1)
	sp.SetKey("TXT")
	sp.Count(outcome, 1)
	sp.End()
	rec.end(o)

	rp.replayLocate(rec, root, id)
}

// replayLocate records the uncached lookup path for a hostname, split
// by layer: public-suffix dispatch, the convention's regexes in order
// until one matches, and, unless the extracted geohint is in the
// convention's learned overlay, dictionary resolution of it. It is
// what a cache miss costs; on a hit the daemon skips it. The
// geoloc.locate span's count is 1 when a regex matched.
func (rp *replica) replayLocate(rec *recorder, root, id int) {
	host := rp.hosts[id]
	lc := rec.child(root, "geoloc.locate")
	ps := rec.child(lc, "psl.registrable")
	suffix := rp.psl.RegistrableDomain(host)
	rec.end(ps)
	if nc := rp.lookup.Convention(suffix); nc != nil {
		rx := rec.child(lc, "rex.match")
		tried := 0
		for _, re := range nc.Regexes {
			tried++
			ext, ok := re.Match(host)
			if !ok {
				continue
			}
			rec.end(rx)
			rec.spans[rx].n = int32(tried)
			rec.spans[lc].n = 1
			rx = -1
			if rp.learned[learnedHint{nc.Suffix, ext.Type, ext.Hint}] {
				break
			}
			cr := rec.child(lc, "core.resolve")
			if locs := core.DictionaryLocations(rp.dict, ext); len(locs) > 0 {
				core.PickLocation(rp.dict, locs)
			}
			rec.end(cr)
			break
		}
		if rx >= 0 {
			rec.end(rx)
			rec.spans[rx].n = int32(tried)
		}
	}
	rec.end(lc)
}

// perCallNS times f over ids in blocks and returns the median per-call
// time in ns. Timing blocks rather than single calls keeps the clock's
// own cost out of nanosecond-scale layers.
func perCallNS(ids []int, block int, f func(id int)) float64 {
	var per []float64
	for lo := 0; lo+block <= len(ids); lo += block {
		t0 := time.Now()
		for _, id := range ids[lo : lo+block] {
			f(id)
		}
		per = append(per, float64(time.Since(t0))/float64(block))
	}
	return median(per)
}

// allocsPerCall counts heap allocations per call of f over ids.
func allocsPerCall(ids []int, f func(id int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, id := range ids {
		f(id)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(ids))
}

// medianMS runs f n times and returns the median wall time in ms.
func medianMS(n int, f func() error) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(ms), nil
}

// probeServing measures the serving layers in isolation over ids, a
// prefix of the workload's stream, and adds them to m.
func probeServing(m map[string]float64, snap []byte, hosts []string, queries [][]byte, ids []int) error {
	ix := func(cache int) (*geoloc.Index, error) {
		return geoloc.Load(bytes.NewReader(snap), geoloc.Options{CacheSize: cache, Tracer: obs.New(obs.Options{})})
	}
	// Hits: a hot set well inside the cache, looked up once to fill it.
	hitIx, err := ix(0)
	if err != nil {
		return err
	}
	hot := distinct(ids, geoloc.DefaultCacheSize/2)
	for _, id := range hot {
		hitIx.Lookup(hosts[id])
	}
	hotStream := make([]int, 0, len(ids))
	for len(hotStream) < len(ids) {
		hotStream = append(hotStream, hot...)
	}
	m["geoloc.hit_ns"] = perCallNS(hotStream[:len(ids)], 64, func(id int) { hitIx.Lookup(hosts[id]) })

	missIx, err := ix(-1)
	if err != nil {
		return err
	}
	m["geoloc.miss_ns"] = perCallNS(ids, 64, func(id int) { missIx.Lookup(hosts[id]) })

	allocIx, err := ix(0)
	if err != nil {
		return err
	}
	m["geoloc.lookup_allocs"] = allocsPerCall(ids, func(id int) { allocIx.Lookup(hosts[id]) })
	if m["geoloc.cache_hit_frac"], m["geoloc.located_frac"], err = cacheFractions(snap, hosts, ids); err != nil {
		return err
	}

	batchIx, err := ix(0)
	if err != nil {
		return err
	}
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = hosts[id]
	}
	batchIx.LookupBatch(names) // fill the cache as the daemon's is
	var chunks []int
	for lo := 0; lo+batchSize <= len(names); lo += batchSize {
		chunks = append(chunks, lo)
	}
	m["geoloc.batch_ns_per_host"] = perCallNS(chunks, 1, func(lo int) { batchIx.LookupBatch(names[lo : lo+batchSize]) }) / batchSize

	m["geoloc.snapshot_bytes"] = float64(len(snap))
	var res *core.Result
	if m["geoloc.snapshot_read_ms"], err = medianMS(5, func() error {
		res, err = geoloc.ReadSnapshot(bytes.NewReader(snap), nil)
		return err
	}); err != nil {
		return err
	}
	if m["geoloc.compile_ms"], err = medianMS(5, func() error {
		_, err := geoloc.New(res, geoloc.Options{Tracer: obs.New(obs.Options{})})
		return err
	}); err != nil {
		return err
	}

	// DNS codec allocations, on the queries and on replies built the
	// way the handler builds them.
	m["dnswire.unpack_allocs"] = allocsPerCall(ids, func(id int) { dnswire.Unpack(queries[id]) })
	replies := make([]*dnswire.Message, len(hosts))
	for _, id := range ids {
		q, err := dnswire.Unpack(queries[id])
		if err != nil {
			return err
		}
		r := dnswire.Reply(q)
		if g, ok := missIx.Lookup(hosts[id]); ok {
			r.Answers = append(r.Answers, dnswire.RR{Name: hosts[id], Class: dnswire.ClassINET, TTL: 300, Data: dnswire.TXT(geoloc.AnswerStrings(g))})
		} else {
			r.RCode = dnswire.RCodeNXDomain
		}
		replies[id] = r
	}
	m["dnswire.pack_allocs"] = allocsPerCall(ids, func(id int) { replies[id].PackTruncated(1232) })

	handleIx, err := ix(0)
	if err != nil {
		return err
	}
	srv := dnsserve.New(handleIx, dnsserve.Config{TTL: 300, UDPSize: 1232, Tracer: obs.New(obs.Options{})})
	src := netip.MustParseAddr("127.0.0.1")
	for _, id := range ids {
		srv.HandlePacket(queries[id], src, false)
	}
	m["dnsserve.handle_allocs"] = allocsPerCall(ids, func(id int) { srv.HandlePacket(queries[id], src, false) })

	probeObs(m)
	return nil
}

// probeObs measures one always-on tracer span: alone, its allocations,
// and with one goroutine per CPU sharing the tracer as request
// goroutines share a daemon's.
func probeObs(m map[string]float64) {
	const n = 20000
	span := func(tr *obs.Tracer) {
		sp := tr.Start("http")
		sp.SetKey("POST /v1/geolocate")
		sp.Count("requests", 1)
		sp.Count("status_2xx", 1)
		sp.End()
	}
	ids := make([]int, n)
	tr := obs.New(obs.Options{})
	m["obs.span_allocs"] = allocsPerCall(ids, func(int) { span(tr) })

	procs := runtime.GOMAXPROCS(0)
	shared := obs.New(obs.Options{})
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				span(shared)
			}
		}()
	}
	wg.Wait()
	m["obs.span_ns_contended"] = float64(time.Since(t0)) / n
}

// cacheFractions runs ids through a fresh index with the default cache,
// as a daemon's is, and returns the share of lookups after the first
// quarter (the warm-up) that hit the cache and that were located.
func cacheFractions(snap []byte, hosts []string, ids []int) (hit, located float64, err error) {
	ix, err := geoloc.Load(bytes.NewReader(snap), geoloc.Options{})
	if err != nil {
		return 0, 0, err
	}
	warm := len(ids) / 4
	for _, id := range ids[:warm] {
		ix.Lookup(hosts[id])
	}
	s0 := ix.Stats()
	for _, id := range ids[warm:] {
		ix.Lookup(hosts[id])
	}
	s1 := ix.Stats()
	n := float64(s1.Lookups - s0.Lookups)
	return float64(s1.CacheHits-s0.CacheHits) / n, float64(s1.Matched-s0.Matched) / n, nil
}

// distinct returns up to k distinct ids in first-seen order.
func distinct(ids []int, k int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
			if len(out) == k {
				break
			}
		}
	}
	return out
}
