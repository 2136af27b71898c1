package main

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// cpusAllowed returns the Cpus_allowed_list line of /proc/<pid>/status.
func cpusAllowed(t *testing.T, pid string) string {
	t.Helper()
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(v)
		}
	}
	t.Fatalf("no Cpus_allowed_list for %s", pid)
	return ""
}

// A daemon started through the plan runs on the daemon's CPU alone, one
// the benchmark does not use.
func TestDaemonStartsOnItsOwnCPU(t *testing.T) {
	plan, err := planCPUs()
	if err != nil {
		t.Fatal(err)
	}
	if plan.daemon == nil {
		t.Skip("a single CPU is allowed; nothing to split")
	}
	cpu := func(s *cpuSet) string {
		for c := range len(s) * 64 {
			if s.has(c) {
				return strconv.Itoa(c)
			}
		}
		return ""
	}
	if cpu(plan.daemon) == cpu(plan.bench) {
		t.Fatalf("daemon and benchmark share CPU %s", cpu(plan.daemon))
	}
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep command to start")
	}
	cmd := exec.Command(sleep, "10")
	if err := plan.start(cmd); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	if got := cpusAllowed(t, strconv.Itoa(cmd.Process.Pid)); got != cpu(plan.daemon) {
		t.Errorf("child allowed on CPUs %s, want %s", got, cpu(plan.daemon))
	}
}
