package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// errWrongAnswer marks a probe that reached the daemon and got an answer
// that differs from the reference.
var errWrongAnswer = errors.New("wrong answer")

// closer is a client connection of any front.
type closer interface{ close() error }

// front is one serving daemon as the benchmark drives it.
type front interface {
	bin() string
	setAddr(addr string)
	probe(id int) error
	scoreAll(score *hintScore) (attempted, failed int64, err error)
	// singleOps dials n connections, each with one request in flight.
	singleOps(n int) ([]func(id int) (int, bool, error), []closer, error)
	// batchWorkers dials one connection per stream for 100-hostname
	// batches or bursts.
	batchWorkers(streams []*stream) ([]worker, []closer, error)
	// replay records the daemon's in-process work for one request.
	replay(rp *replica, rec *recorder, root, id int)
}

func (f *httpFront) bin() string         { return "geoserve" }
func (f *httpFront) setAddr(addr string) { f.addr = addr }

func (f *httpFront) singleOps(n int) ([]func(int) (int, bool, error), []closer, error) {
	return connect(n, func() (*httpConn, error) { return dialHTTP(f.addr) },
		func(_ int, c *httpConn) func(int) (int, bool, error) { return f.singleOp(c) })
}

func (f *httpFront) batchWorkers(streams []*stream) ([]worker, []closer, error) {
	return connect(len(streams), func() (*httpConn, error) { return dialHTTP(f.addr) },
		func(i int, c *httpConn) worker { return f.batchWorker(c, streams[i]) })
}

func (f *httpFront) replay(rp *replica, rec *recorder, root, id int) { rp.replayHTTP(rec, root, id) }

func (f *dnsFront) bin() string         { return "geodns" }
func (f *dnsFront) setAddr(addr string) { f.addr = addr }

func (f *dnsFront) singleOps(n int) ([]func(int) (int, bool, error), []closer, error) {
	return connect(n, func() (*udpConn, error) { return dialUDP(f.addr) },
		func(_ int, u *udpConn) func(int) (int, bool, error) { return f.udpOp(u) })
}

func (f *dnsFront) batchWorkers(streams []*stream) ([]worker, []closer, error) {
	return connect(len(streams), func() (*tcpConn, error) { return dialTCP(f.addr) },
		func(i int, t *tcpConn) worker { return f.tcpWorker(t, streams[i]) })
}

func (f *dnsFront) replay(rp *replica, rec *recorder, root, id int) { rp.replayDNS(rec, root, id) }

// connect dials n connections and builds one operation or worker on
// each; when a dial fails, the connections already open are closed.
func connect[C closer, T any](n int, dial func() (C, error), use func(i int, c C) T) ([]T, []closer, error) {
	out := make([]T, 0, n)
	var cs []closer
	for i := 0; i < n; i++ {
		c, err := dial()
		if err != nil {
			return nil, nil, errors.Join(err, closeAll(cs))
		}
		cs = append(cs, c)
		out = append(out, use(i, c))
	}
	return out, cs, nil
}

func closeAll(cs []closer) error {
	var errs []error
	for _, c := range cs {
		errs = append(errs, c.close())
	}
	return errors.Join(errs...)
}

// closeInto closes a connection a function dialed for itself and
// reports a failed close through the function's error result, unless
// the function already failed.
func closeInto(c closer, err *error) {
	if cerr := c.close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// serveOpts shapes one daemon's run.
type serveOpts struct {
	kind          string        // stream kind
	seed          int64         // stream seed
	conns         int           // connections per phase
	coldStarts    int           // cold starts timed for setup_s
	warm          time.Duration // warm-up before each phase
	single, batch time.Duration // measured phase lengths
	traced        time.Duration // traced replay of the single phase; 0 skips it
	diag          bool          // also collect /metrics and reload timings (HTTP)
}

// serveResult is what one daemon's run measured.
type serveResult struct {
	setup         []float64 // daemon CPU seconds per cold start, at the reference speed
	setupWall     []float64 // wall seconds per cold start
	setupSteal    []float64 // steal fraction during each cold start
	setupCal      []float64 // calibration ns per unit of each block of cold starts
	single, batch phaseResult
	traced        phaseResult
	recs          []*recorder
	rss           int64
	score         hintScore
	scoreOps      [2]int64 // attempted, failed
	coldFailed    int64
	cacheHitFrac  float64
	reloadMS      float64
}

func (r *serveResult) attempted() int64 {
	return r.scoreOps[0] + int64(len(r.setup)) + r.coldFailed +
		r.single.attempted + r.batch.attempted + r.traced.attempted
}

func (r *serveResult) failed() int64 {
	return r.scoreOps[1] + r.coldFailed + r.single.failed + r.batch.failed + r.traced.failed
}

// setupS is setup_s: the daemon's CPU time from exec to its first
// verified answer at the reference speed, the median of the quieter
// half of the cold starts by steal.
func (r *serveResult) setupS() float64 { return quietMedian(r.setup, r.setupSteal) }

// coldBlocks is how many blocks the cold starts are timed in: before
// the measured phases, between them and after them, so that a burst of
// load on the host meets one block rather than every start.
const coldBlocks = 3

// runServe starts the front's daemon on the run's snapshot and drives
// it: a scoring pass over every hostname, then the single and batch
// phases with blocks of cold starts before, between and after them,
// and on request the diagnostics and a traced replay.
func runServe(e *env, f front, o serveOpts, rp *replica) (*serveResult, error) {
	res := &serveResult{}
	bin := e.binPath(f.bin())
	args := []string{"-snapshot", e.snapPath, "-addr", "127.0.0.1:0"}
	d, err := startDaemon(bin, args...)
	if err != nil {
		return nil, err
	}
	cold := func() error {
		err := coldStarts(e, f, o.coldStarts/coldBlocks, bin, args, res)
		f.setAddr(d.addr)
		return err
	}
	f.setAddr(d.addr)
	err = drive(e, f, o, rp, d, res, cold)
	if serr := d.stop(); serr != nil {
		err = errors.Join(err, serr)
	}
	return res, err
}

// coldStarts times n cold starts of the front's daemon, each from exec
// to the first verified answer, and records the daemon's CPU time over
// that span, at the reference speed of the block's calibration, and
// the steal during it.
func coldStarts(e *env, f front, n int, bin string, args []string, res *serveResult) error {
	var cpu, wall, steal []float64
	cal, _, err := calibrated(func() error {
		for i := 0; i < n; i++ {
			st0, t0 := readCPUStat(), time.Now()
			d, err := startDaemon(bin, args...)
			if err != nil {
				return err
			}
			f.setAddr(d.addr)
			// Until the daemon answers, probes fail to connect or time
			// out; a wrong answer ends the attempt.
			var perr error
			for deadline := t0.Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
				if perr = f.probe(e.probeID); perr == nil || errors.Is(perr, errWrongAnswer) {
					break
				}
			}
			elapsed, st := time.Since(t0), readCPUStat().sub(st0)
			if err := d.kill(); err != nil {
				return err
			}
			if perr != nil {
				res.coldFailed++
				e.logf("cold start %d of %s failed: %v", i, f.bin(), perr)
				continue
			}
			cpu = append(cpu, d.cpu().Seconds())
			wall = append(wall, elapsed.Seconds())
			steal = append(steal, st.frac())
		}
		return nil
	})
	for i := range cpu {
		res.setup = append(res.setup, atRefSpeed(cpu[i], cal))
	}
	res.setupWall = append(res.setupWall, wall...)
	res.setupSteal = append(res.setupSteal, steal...)
	res.setupCal = append(res.setupCal, cal)
	return err
}

func drive(e *env, f front, o serveOpts, rp *replica, d *daemon, res *serveResult, cold func() error) error {
	var err error
	if res.scoreOps[0], res.scoreOps[1], err = f.scoreAll(&res.score); err != nil {
		return fmt.Errorf("scoring pass: %w", err)
	}
	if err := cold(); err != nil {
		return err
	}
	streams := func(offset int) []*stream {
		out := make([]*stream, o.conns)
		for c := range out {
			out[c] = newStream(o.kind, len(e.hosts), o.seed, offset+c)
		}
		return out
	}
	hf, isHTTP := f.(*httpFront)
	var hits0, misses0 float64
	if o.diag && isHTTP {
		if hits0, misses0, err = cacheCounters(hf); err != nil {
			return err
		}
	}

	// Single phase: one request in flight per connection.
	ops, cs, err := f.singleOps(o.conns)
	if err != nil {
		return err
	}
	sts := streams(0)
	workers := make([]worker, o.conns)
	for c := range workers {
		op, st := ops[c], sts[c]
		workers[c] = func() (int, bool, error) { return op(st.next()) }
	}
	res.single = runPhase("single", workers, o.warm, o.single, d.pid())
	if err := closeAll(cs); err != nil {
		return err
	}
	if err := cold(); err != nil {
		return err
	}
	if o.diag && isHTTP {
		hits1, misses1, err := cacheCounters(hf)
		if err != nil {
			return err
		}
		if n := hits1 - hits0 + misses1 - misses0; n > 0 {
			res.cacheHitFrac = (hits1 - hits0) / n
		}
	}

	// Batch phase: batchSize hostnames per request or burst.
	workers, cs, err = f.batchWorkers(streams(1000))
	if err != nil {
		return err
	}
	res.batch = runPhase("batch", workers, o.warm, o.batch, d.pid())
	if err := closeAll(cs); err != nil {
		return err
	}
	if res.rss, err = vmHWM(d.pid()); err != nil {
		return err
	}
	if err := cold(); err != nil {
		return err
	}

	if o.diag && isHTTP {
		if res.reloadMS, err = reloadMS(hf, 5); err != nil {
			return err
		}
	}
	if o.traced == 0 {
		return nil
	}

	// Traced replay of the single phase: the same streams from the
	// start, each request under a root span with the wire exchange and
	// the in-process layer calls as children.
	rp.warm(streamPrefix(o.kind, len(e.hosts), o.seed, 20000))
	ops, cs, err = f.singleOps(o.conns)
	if err != nil {
		return err
	}
	sts = streams(0)
	t0 := time.Now()
	rootName := f.bin() + ".request"
	for c := range workers {
		op, st := ops[c], sts[c]
		rec := newRecorder(t0, c)
		res.recs = append(res.recs, rec)
		workers[c] = func() (int, bool, error) {
			id := st.next()
			root := rec.begin(rootName)
			w := rec.child(root, "wire")
			n, ok, err := op(id)
			rec.end(w)
			f.replay(rp, rec, root, id)
			rec.end(root)
			return n, ok, err
		}
	}
	res.traced = runPhase("traced", workers[:o.conns], o.warm, o.traced, d.pid())
	return closeAll(cs)
}

// streamPrefix returns the first n draws of a stream on a connection
// no phase uses.
func streamPrefix(kind string, hosts int, seed int64, n int) []int {
	st := newStream(kind, hosts, seed, 9999)
	out := make([]int, n)
	for i := range out {
		out[i] = st.next()
	}
	return out
}

// cacheCounters reads geoserve's result-cache counters from /metrics.
func cacheCounters(f *httpFront) (hits, misses float64, err error) {
	c, err := dialHTTP(f.addr)
	if err != nil {
		return 0, 0, err
	}
	defer closeInto(c, &err)
	status, body, err := c.get("/metrics")
	if err != nil {
		return 0, 0, err
	}
	var m struct {
		Index struct {
			CacheHits   float64 `json:"cache_hits"`
			CacheMisses float64 `json:"cache_misses"`
		} `json:"index"`
	}
	if err := json.Unmarshal(body, &m); err != nil || status != 200 {
		return 0, 0, fmt.Errorf("/metrics: status %d: %v", status, err)
	}
	return m.Index.CacheHits, m.Index.CacheMisses, nil
}

// reloadMS times n POST /v1/admin/reload calls and returns the median.
func reloadMS(f *httpFront, n int) (ms float64, err error) {
	c, err := dialHTTP(f.addr)
	if err != nil {
		return 0, err
	}
	defer closeInto(c, &err)
	reload := httpRequest(nil, "/v1/admin/reload", nil)
	return medianMS(n, func() error {
		status, body, err := c.do(reload)
		if err == nil && status != 200 {
			err = fmt.Errorf("reload: status %d: %s", status, body)
		}
		return err
	})
}
