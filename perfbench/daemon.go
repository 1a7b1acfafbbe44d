package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running geoserve or geodns process. Its stderr is
// scanned for the "listening on <addr>" line both daemons log once
// their sockets are bound, which is how a daemon started on port 0
// tells the benchmark where it is.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string

	mu      sync.Mutex
	lines   []string // tail of stderr, for error reports
	drained chan struct{}
}

// startDaemon execs bin with args and waits until it reports its
// listening address.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{name: bin, cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go d.drain(stderr, addrc)
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.drained:
	case <-time.After(20 * time.Second):
	}
	err = fmt.Errorf("%s did not report a listening address: %s", bin, d.tail())
	if kerr := d.kill(); kerr != nil {
		err = errors.Join(err, kerr)
	}
	return nil, err
}

// drain reads stderr until the process closes it, handing the listening
// address to addrc and keeping the last lines for diagnostics.
func (d *daemon) drain(r io.Reader, addrc chan<- string) {
	defer close(d.drained)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			if addr, _, _ := strings.Cut(rest, " "); addr != "" {
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		d.mu.Lock()
		d.lines = append(d.lines, line)
		if len(d.lines) > 20 {
			d.lines = d.lines[1:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.lines, " | ")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM and waits for a clean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	<-d.drained
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("%s: %w: %s", d.name, err, d.tail())
	}
	return nil
}

// kill ends a daemon whose shutdown is not under test (cold-start
// probes) and waits for it.
func (d *daemon) kill() error {
	if err := d.cmd.Process.Kill(); err != nil {
		return err
	}
	<-d.drained
	err := d.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return nil // killed, as asked
	}
	return err
}

// procCPU returns the CPU time a running process's threads have had,
// summed from each thread's schedstat in nanoseconds: finer than the
// 10 ms ticks of /proc/<pid>/stat. Like every CPU time the kernel
// accounts, it leaves out the time the hypervisor gave this machine's
// vCPUs to other guests. A thread that exits takes its time with it;
// the daemons' Go runtimes keep their threads.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited meanwhile
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// cpu is the user+system CPU time an exited daemon used, all threads,
// from the rusage its parent reaped.
func (d *daemon) cpu() time.Duration {
	ps := d.cmd.ProcessState
	if ps == nil {
		return 0
	}
	return ps.UserTime() + ps.SystemTime()
}

// vmHWM returns a process's peak resident set size in bytes.
func vmHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the machine-wide jiffy counters of /proc/stat's cpu line.
type cpuStat struct{ total, steal int64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var st cpuStat
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so the total stops at steal.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// sub is the counters' growth since an earlier reading a.
func (b cpuStat) sub(a cpuStat) cpuStat {
	return cpuStat{total: b.total - a.total, steal: b.steal - a.steal}
}

// frac is the share of the counted CPU time the hypervisor gave to
// other guests.
func (d cpuStat) frac() float64 {
	if d.total <= 0 {
		return 0
	}
	return float64(d.steal) / float64(d.total)
}

// stealFrac is the share of machine CPU time the hypervisor gave to
// other guests between two readings.
func stealFrac(a, b cpuStat) float64 { return b.sub(a).frac() }
