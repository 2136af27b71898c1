package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/freq"
	"repro/freq/store"
)

// daemon is one freqd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// exited is closed when the daemon's stderr reaches EOF, which is when
	// the process has ended.
	exited chan struct{}
	mu     sync.Mutex
	tail   []string // last stderr lines, for diagnostics
	once   sync.Once
}

// startDaemon execs freqd listening on a free loopback port and waits
// for the answer to its first HELLO. It returns the running daemon and
// the time from exec to that answer: the daemon's set-up time as a
// client sees it.
func startDaemon(bin string, flags []string, cpus cpuPlan) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, flags...)...)
	// A benchmark that dies must not leave the daemon running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cpus.start(cmd); err != nil {
		return nil, 0, fmt.Errorf("start freqd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go d.readStderr(stderr, addrc)
	select {
	case d.addr = <-addrc:
	case <-d.exited:
		d.stop()
		return nil, 0, fmt.Errorf("freqd exited during start-up: %s", d.stderrTail())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, errors.New("freqd did not listen within 30s")
	}
	c, err := dial(d.addr)
	if err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("first HELLO: %w", err)
	}
	elapsed := time.Since(start)
	c.Close()
	return d, elapsed, nil
}

// readStderr forwards the listen address from freqd's start-up line and
// keeps the last lines for error reports.
func (d *daemon) readStderr(r io.Reader, addrc chan<- string) {
	defer close(d.exited)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			select {
			case addrc <- addr:
			default:
			}
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 8 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// stop ends the daemon gracefully (SIGTERM drains it), killing it if the
// drain takes over 10s, and waits until it has exited.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		_ = d.cmd.Wait() // the exit status of a stopped daemon tells nothing
	})
}

// procCPU returns the CPU time process pid has used, all threads, user
// and system, in nanoseconds: the process's CPU-time clock, whose id
// Linux derives from the pid (MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)).
// /proc/<pid>/stat counts in 10ms ticks, too coarse for one-second
// intervals.
func procCPU(pid int) (time.Duration, error) {
	var ts syscall.Timespec
	clock := (^pid)<<3 | 2
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()), nil
}

// procRSS returns pid's resident set size (VmRSS) in MiB.
func procRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmRSS %q: %w", rest, err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// selfCPU returns the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// The history workload starts freqd on a store that already holds a
// day: 1-minute slots, each summarizing slotPairs consecutive ring pairs
// at the daemon's per-interval budget, as the daemon's own rotation
// would have written them.
const (
	preloadSlots = 24 * 60
	slotPairs    = 1 << 16
)

// preloadStore writes the day of slots, ending at end, into each of
// dirs. Slot i summarizes ring chunk i mod (ring pairs / slotPairs).
func preloadStore(in *inputs, end time.Time, dirs ...string) error {
	views, err := chunkViews(in, in.wl.k, len(in.ring)/pairSize/slotPairs)
	if err != nil {
		return err
	}
	for _, dir := range dirs {
		st, err := store.Open[int64](dir, store.WithPartitionDuration(time.Hour))
		if err != nil {
			return err
		}
		for i := range preloadSlots {
			start := end.Add(-time.Duration(preloadSlots-i) * time.Minute)
			if err := st.AppendSlot(views[i%len(views)], start, start.Add(time.Minute)); err != nil {
				st.Close()
				return err
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// chunkViews summarizes each of the first n slotPairs-pair chunks of the
// ring at budget k.
func chunkViews(in *inputs, k, n int) ([]*freq.View[int64], error) {
	views := make([]*freq.View[int64], n)
	for c := range views {
		sk, err := freq.New[int64](k)
		if err != nil {
			return nil, err
		}
		items, weights := in.pairs(c*slotPairs, slotPairs)
		if err := sk.UpdateWeightedBatch(items, weights); err != nil {
			return nil, err
		}
		views[c] = freq.NewView(sk)
	}
	return views, nil
}
