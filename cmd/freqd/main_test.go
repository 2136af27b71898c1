package main

import (
	"bufio"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/freq/server"
)

// daemonEnv, set in a child's environment, makes the test binary run as
// freqd itself: TestMain hands control to main with the child's flags.
const daemonEnv = "FREQD_TEST_RUN_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one running freqd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// done closes once the child's stderr is drained to EOF.
	done chan struct{}
	log  strings.Builder
}

var listeningRE = regexp.MustCompile(`listening on (\S+) `)

// startDaemon runs freqd with args and waits for its listening line.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(os.Args[0], args...), done: make(chan struct{})}
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.log.WriteString(line + "\n")
			if m := listeningRE.FindStringSubmatch(line); m != nil {
				addr <- m[1]
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case d.addr = <-addr:
	case <-d.done:
		d.cmd.Wait()
		t.Fatalf("freqd exited before listening:\n%s", d.log.String())
	case <-time.After(10 * time.Second):
		t.Fatal("freqd did not report its listening address within 10s")
	}
	return d
}

// stop sends SIGTERM and waits for the graceful drain to finish.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		t.Fatal("freqd did not exit within 10s of SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("freqd: %v\n%s", err, d.log.String())
	}
}

// raw sends each line and returns the replies.
func (d *daemon) raw(t *testing.T, lines ...string) []string {
	t.Helper()
	c, err := server.Dial[int64](d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var replies []string
	for _, line := range lines {
		resp, err := c.Raw(line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		replies = append(replies, resp)
	}
	return replies
}

// TestRestartKeepsGlobalAndTenantHistory ingests into the global and
// one tenant scope, stops freqd with SIGTERM and restarts it on the
// same store. Both histories must answer RANGE exactly: the window's
// head slot is flushed into the store and every live tenant is drained
// into it before the store closes.
func TestRestartKeepsGlobalAndTenantHistory(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-listen", "127.0.0.1:0", "-window", "3", "-rotate-every", "1s",
		"-store-dir", dir, "-tenants", "-max-tenants", "2",
	}
	d := startDaemon(t, args...)
	d.raw(t, "U 7 100", "TENANT alice U 7 50")
	d.stop(t)

	d = startDaemon(t, args...)
	got := d.raw(t, "RANGE 0 4102444800 EST 7", "TENANT alice RANGE 0 4102444800 EST 7")
	d.stop(t)
	for i, want := range []string{"EST 100 ", "EST 50 "} {
		if !strings.HasPrefix(got[i], want) {
			t.Errorf("reply %d after restart = %q, want estimate %q\nfreqd log:\n%s", i, got[i], want, d.log.String())
		}
	}
}
