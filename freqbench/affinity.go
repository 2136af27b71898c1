package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The daemon and this load generator each get a CPU of their own when
// the machine allows two or more (see the package doc). On a two-CPU
// machine shared with other tenants this split, more than run length,
// is what brought run-to-run spread down.

// cpuSet is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) set(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

// setAffinity pins thread tid (0 = the calling thread) to s.
func setAffinity(tid int, s *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// cpuPlan is where the daemon and the benchmark run; both nil when the
// machine allows a single CPU and they share it.
type cpuPlan struct {
	daemon, bench *cpuSet
}

// planCPUs gives the daemon the first allowed CPU and the benchmark the
// second.
func planCPUs() (cpuPlan, error) {
	var allowed cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed)))
	if e != 0 {
		return cpuPlan{}, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var cpus []int
	for c := 0; c < len(allowed)*64 && len(cpus) < 2; c++ {
		if allowed.has(c) {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) < 2 {
		return cpuPlan{}, nil
	}
	p := cpuPlan{daemon: new(cpuSet), bench: new(cpuSet)}
	p.daemon.set(cpus[0])
	p.bench.set(cpus[1])
	return p, nil
}

// pinSelf moves every thread of this process to the benchmark's CPU and
// runs Go on one processor there. Threads started later inherit the
// mask from the thread that starts them.
func (p cpuPlan) pinSelf() error { return pinAll(p.bench) }

// pinDaemonCPU moves this process to the daemon's CPU, for layer replays
// run once the daemon has stopped: their costs then compare with the
// daemon's on the same core.
func (p cpuPlan) pinDaemonCPU() error { return pinAll(p.daemon) }

// pinAll moves every thread of this process to set, if not nil, and runs
// Go on one processor there.
func pinAll(set *cpuSet) error {
	if set == nil {
		return nil
	}
	runtime.GOMAXPROCS(1)
	// A thread may start while the list is read; a second pass finds it.
	for range 2 {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// A thread that has exited since the listing is no error.
			if err := setAffinity(tid, set); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	return nil
}

// start starts cmd on the daemon's CPU: the child inherits the mask of
// the thread that forks it, so that thread is pinned there for the fork.
func (p cpuPlan) start(cmd *exec.Cmd) error {
	if p.daemon == nil {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, p.daemon); err != nil {
		return err
	}
	startErr := cmd.Start()
	return errors.Join(startErr, setAffinity(0, p.bench))
}
