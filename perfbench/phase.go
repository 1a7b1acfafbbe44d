package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// worker performs one closed-loop operation on its own connection: one
// request, or one batch or burst. It reports how many hostnames were
// answered and whether every answer was right. An error means the
// connection is unusable; the worker then stops for the rest of the
// phase, and the operation counts as failed.
type worker func() (hosts int, ok bool, err error)

// A measured phase is cut into equal windows, and its figures come from
// the quiet ones: the windows in which the hypervisor stole the least
// CPU time from this machine (/proc/stat steal), at least quiet of them
// (see quietest). On a shared host the neighbours' load comes and goes
// in bursts, and while it lasts a loopback server on two vCPUs wakes
// more often and spends more CPU per request. Steal measures the
// neighbours, not the code under test, so choosing windows by it cannot
// hide a regression.
const (
	windows = 10
	quiet   = 5
)

// phaseResult is what one measured phase reports.
type phaseResult struct {
	name      string
	attempted int64
	failed    int64
	errs      []error

	dur         time.Duration
	ops, hosts  int64     // completed in the measurement window
	lat         []float64 // per-operation latency in µs, quiet windows
	kept        int       // how many windows are quiet
	windowRates []float64 // hostnames per second in each window
	windowRatio []float64 // daemon over client CPU time in each window
	windowSteal []float64 // steal fraction of each window
	opRate      float64   // median over quiet windows, operations per second
	hostRate    float64   // median over quiet windows, hostnames per second
	cpuRatio    float64   // median over quiet windows of windowRatio

	clientCPU, daemonCPU time.Duration
	steal                float64
}

type sample struct {
	lat, done time.Duration // latency; completion offset from the window start
	hosts     int32
}

// runPhase warms the workers up for warm, collects garbage, then runs
// them for dur and measures. pid is the daemon whose CPU time is
// charged to the phase.
func runPhase(name string, workers []worker, warm, dur time.Duration, pid int) phaseResult {
	res := phaseResult{name: name, dur: dur}
	var mu sync.Mutex
	run := func(d time.Duration, record bool) [][]sample {
		out := make([][]sample, len(workers))
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for i, w := range workers {
			wg.Add(1)
			go func(i int, w worker) {
				defer wg.Done()
				var s []sample
				if record {
					s = make([]sample, 0, 1<<14)
				}
				var attempted, failed int64
				var err error
				for {
					t0 := time.Now()
					if !t0.Before(deadline) {
						break
					}
					var hosts int
					var ok bool
					hosts, ok, err = w()
					t1 := time.Now()
					attempted++
					if !ok || err != nil {
						failed++
					}
					if err != nil {
						break
					}
					if record && ok {
						s = append(s, sample{lat: t1.Sub(t0), done: t1.Sub(start), hosts: int32(hosts)})
					}
				}
				out[i] = s
				mu.Lock()
				res.attempted += attempted
				res.failed += failed
				if err != nil {
					res.errs = append(res.errs, err)
				}
				mu.Unlock()
			}(i, w)
		}
		wg.Wait()
		return out
	}
	if warm > 0 {
		run(warm, false)
	}
	runtime.GC()
	width := dur / windows
	var perWorker [][]sample
	rs := sampleWindows(width, pid, func() { perWorker = run(dur, true) })
	res.clientCPU = rs[windows].client - rs[0].client
	res.daemonCPU = rs[windows].daemon - rs[0].daemon
	res.steal = stealFrac(rs[0].stat, rs[windows].stat)
	// The windows are equally long, so they are ranked by their steal in
	// whole ticks. A window whose CPU times were not both read cannot be
	// kept.
	ticks := make([]float64, windows)
	for k := range ticks {
		d, c := rs[k+1].daemon-rs[k].daemon, rs[k+1].client-rs[k].client
		res.windowSteal = append(res.windowSteal, stealFrac(rs[k].stat, rs[k+1].stat))
		ticks[k] = float64(rs[k+1].stat.steal - rs[k].stat.steal)
		ratio := 0.0
		if d > 0 && c > 0 {
			ratio = d.Seconds() / c.Seconds()
		} else {
			ticks[k] = math.Inf(1)
		}
		res.windowRatio = append(res.windowRatio, ratio)
	}
	keep := quietest(ticks, quiet)
	for k := range keep {
		keep[k] = keep[k] && res.windowRatio[k] > 0
		if keep[k] {
			res.kept++
		}
	}

	var winOps, winHosts [windows]float64
	for _, ss := range perWorker {
		for _, s := range ss {
			res.ops++
			res.hosts += int64(s.hosts)
			k := int(s.done / width)
			if k >= windows {
				continue
			}
			winOps[k]++
			winHosts[k] += float64(s.hosts)
			if keep[k] {
				res.lat = append(res.lat, float64(s.lat)/float64(time.Microsecond))
			}
		}
	}
	sec := width.Seconds()
	var keptOps, keptHosts, keptRatio []float64
	for k := range winOps {
		res.windowRates = append(res.windowRates, winHosts[k]/sec)
		if keep[k] {
			keptOps, keptHosts = append(keptOps, winOps[k]/sec), append(keptHosts, winHosts[k]/sec)
			keptRatio = append(keptRatio, res.windowRatio[k])
		}
	}
	res.opRate, res.hostRate, res.cpuRatio = median(keptOps), median(keptHosts), median(keptRatio)
	return res
}

// reading is one window boundary: the machine's CPU counters and the
// CPU time of the daemon and of this process, the client.
type reading struct {
	stat           cpuStat
	daemon, client time.Duration
}

func readBoundary(pid int) reading {
	r := reading{stat: readCPUStat(), client: selfCPU()}
	// An unreadable daemon reads as no CPU time, which leaves its
	// windows out.
	r.daemon, _ = procCPU(pid)
	return r
}

// sampleWindows runs f and takes windows+1 readings: as f starts and
// at the end of each of its windows of width, the last when the
// measured window closes rather than when f's final operations
// return.
func sampleWindows(width time.Duration, pid int, f func()) []reading {
	rs := make([]reading, windows+1)
	rs[0] = readBoundary(pid)
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; k <= windows; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * width)))
			rs[k] = readBoundary(pid)
		}
	}()
	f()
	<-done
	return rs
}

// quietest marks the n entries with the least steal and every entry
// that ties with the n-th of them. /proc/stat counts steal in whole
// ticks, so on a quiet host many entries read the same, most often 0;
// keeping all of them, rather than the first n, keeps the figures from
// favouring the start of a phase.
func quietest(steal []float64, n int) []bool {
	keep := make([]bool, len(steal))
	if len(steal) == 0 || n <= 0 {
		return keep
	}
	sorted := append([]float64(nil), steal...)
	sort.Float64s(sorted)
	cut := sorted[min(n, len(sorted))-1]
	for i, v := range steal {
		keep[i] = v <= cut
	}
	return keep
}

// quietMedian is the median of the values whose steal is in the lower
// half (ties kept, as quietest keeps them). The values time operations
// of unequal length, so steal is given as a fraction of the machine's
// CPU time during each: ranked by ticks, a slower operation would count
// as noisier for its length alone.
func quietMedian(xs, steal []float64) float64 {
	keep := quietest(steal, (len(xs)+1)/2)
	var kept []float64
	for i, x := range xs {
		if keep[i] {
			kept = append(kept, x)
		}
	}
	return median(kept)
}

// latencyUS returns the p-th percentile of the phase's latencies in µs.
func (r *phaseResult) latencyUS(p float64) (float64, error) {
	v, err := percentile(append([]float64(nil), r.lat...), p)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", r.name, err)
	}
	return v, nil
}

// latencyText reports the phase's p50 and p90 for its log line, or why
// one is missing.
func (r *phaseResult) latencyText() string {
	var out []string
	for _, p := range []float64{50, 90} {
		v, err := r.latencyUS(p)
		if err != nil {
			out = append(out, err.Error())
			continue
		}
		out = append(out, fmt.Sprintf("p%g %.1f us", p, v))
	}
	return strings.Join(out, ", ")
}

// cpuPer is the daemon's CPU time per unit of work, in µs.
func cpuPerUS(cpu time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(cpu) / float64(time.Microsecond) / float64(n)
}
