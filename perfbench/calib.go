package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A calibration unit is a fixed piece of CPU work of the kinds the
// daemons do per lookup: match a hostname against regular expressions,
// look it up in a map, render numbers and hash a few bytes. It uses the
// standard library only, so no change to the code under test changes
// it, and it allocates nothing, so the benchmark's own garbage
// collection does not charge it.
type calibrator struct {
	hosts []string
	seen  map[string]int
	buf   []byte
	sink  int
}

var calPatterns = []*regexp.Regexp{
	regexp.MustCompile(`^[a-z]+-\d+-\d+\.([a-z]{3})\d+\.`),
	regexp.MustCompile(`\.([a-z]{3})\d*\.example\d+\.net$`),
	regexp.MustCompile(`^(?:ae|xe|ge)-(\d+)-\d+\.`),
	regexp.MustCompile(`^[^.]+\.[a-z]+(\d+)\.(core|edge)\.`),
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{seen: map[string]int{}, buf: make([]byte, 0, 256)}
	words := []string{"ae", "xe", "ge", "core", "edge", "lon", "fra", "nyc", "sjc", "ams", "par", "tyo"}
	for i := 0; i < 4096; i++ {
		h := fmt.Sprintf("%s-%d-%d.%s%d.%s.example%d.net", words[rng.Intn(len(words))], rng.Intn(16), rng.Intn(8),
			words[rng.Intn(len(words))], rng.Intn(100), words[rng.Intn(len(words))], rng.Intn(50))
		c.hosts = append(c.hosts, h)
		c.seen[h] = i
	}
	return c
}

func (c *calibrator) unit(i int) {
	h := c.hosts[i%len(c.hosts)]
	n := c.seen[h]
	for _, re := range calPatterns {
		if re.MatchString(h) {
			n++
		}
	}
	c.buf = strconv.AppendFloat(c.buf[:0], float64(n)*1.000123, 'f', 6, 64)
	c.buf = append(c.buf, h...)
	sum := sha256.Sum256(c.buf)
	c.sink += int(sum[0]) + len(c.buf)
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID),
// which, like all CPU time the kernel accounts, leaves out stolen time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// calSlice is how many units one calibration slice runs, about 1 ms of
// CPU, and calPause the pause after each: the calibration takes a few
// percent of one CPU from what it runs beside.
const (
	calSlice = 300
	calPause = 30 * time.Millisecond
)

// calRefNS is about what a calibration unit costs on the 2-vCPU Intel
// Xeon virtual machine the bounds were set on: 2.6-3.3 us most of the
// time there, down to 1.8 us while the host was idle.
const calRefNS = 3000

var sharedCalibrator = sync.OnceValue(newCalibrator)

// calibrated runs f while a goroutine on a thread of its own times
// calibration slices, at least one; calls must not overlap. It returns the median CPU time of
// a unit, in ns, and the CPU time the calibration took, for callers
// that time f by this process's CPU time.
//
// The host's speed moves with its other guests' load, by a fifth and
// more within minutes, and the CPU time of any work moves with it;
// stolen time, which the kernel leaves out of CPU time, is the smaller
// part. The calibration unit is fixed work measured on the same CPUs
// at the same time, so CPU time scaled by calRefNS over its cost
// (atRefSpeed) holds still while the host's speed moves, and still
// moves when the code under test changes.
func calibrated(f func() error) (calNS float64, calCPU time.Duration, err error) {
	c := sharedCalibrator()
	stop := make(chan struct{})
	type out struct {
		ns  float64
		cpu time.Duration
	}
	done := make(chan out, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t0 := threadCPU()
		var xs []float64
		for {
			s0 := threadCPU()
			for i := 0; i < calSlice; i++ {
				c.unit(i)
			}
			xs = append(xs, float64(threadCPU()-s0)/calSlice)
			pause := time.NewTimer(calPause)
			select {
			case <-stop:
				pause.Stop()
				done <- out{median(xs), threadCPU() - t0}
				return
			case <-pause.C:
			}
		}
	}()
	err = f()
	close(stop)
	o := <-done
	return o.ns, o.cpu, err
}

// atRefSpeed rescales CPU seconds measured while a calibration unit
// cost calNS to the reference host.
func atRefSpeed(cpuS, calNS float64) float64 {
	return cpuS * calRefNS / calNS
}
