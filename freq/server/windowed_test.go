// Window-scoped wire protocol tests (WIN, ROTATE, windowed snapshots
// and cluster fan-out) plus the wire-batch desync regression: a UB
// block whose announced count is rejected must still be drained, or its
// pair lines are reinterpreted as commands and the connection desyncs.
package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/freq"
)

func TestUBRejectedCountDrainsBatch(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2})
	nc, err := net.Dial("tcp", srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// A client ships the whole block — count line and every pair line —
	// before reading the reply. The announced count exceeds
	// MaxWireBatch, so the pairs in flight cannot be consumed within
	// bounded work: the server replies a single ERR and closes the
	// connection. Write and read concurrently, exactly like a
	// pipelining client: the pre-fix server instead answered every
	// leftover pair line with its own ERR, which both desynchronized
	// the reply stream and could deadlock against a client that writes
	// the whole batch first.
	n := MaxWireBatch + 2
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		w := bufio.NewWriterSize(nc, 1<<16)
		fmt.Fprintf(w, "UB %d\n", n)
		for i := 0; i < n; i++ {
			fmt.Fprintln(w, "5 1")
		}
		fmt.Fprintln(w, "EST 5")
		fmt.Fprintln(w, "QUIT")
		// The server may (correctly) close mid-write; flush errors are
		// expected then.
		_ = w.Flush()
	}()

	sc := bufio.NewScanner(nc)
	var replies []string
	for sc.Scan() {
		replies = append(replies, sc.Text())
	}
	<-writeDone
	// Exactly one reply — the batch rejection — then EOF: never a
	// per-pair ERR flood, never the pairs reinterpreted as commands.
	if len(replies) != 1 || !strings.HasPrefix(replies[0], "ERR") {
		t.Fatalf("got %d replies, want the single batch rejection (first few: %v)",
			len(replies), replies[:min(4, len(replies))])
	}
	// None of the rejected block's updates may land, and the server
	// keeps serving fresh connections.
	c := dial(t, srv)
	if est, _, _, err := c.Query(5); err != nil || est != 0 {
		t.Fatalf("after rejected batch: est=%d, err=%v, want 0, nil", est, err)
	}
}

func TestUBCountWithTrailingJunkDrainsAndSurvives(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2})
	c := dial(t, srv)
	// The count parses but the request is malformed: the server drains
	// the three announced pairs and the connection stays synchronized.
	if _, err := c.Raw("UB 3 junk\n1 10\n2 20\n3 30"); err == nil {
		t.Fatal("malformed UB accepted")
	}
	if est, _, _, err := c.Query(1); err != nil || est != 0 {
		t.Fatalf("after drained batch: est=%d, err=%v, want 0, nil", est, err)
	}
	if err := c.Update(7, 5); err != nil {
		t.Fatal(err)
	}
	if est, _, _, _ := c.Query(7); est != 5 {
		t.Fatalf("estimate=%d, want 5", est)
	}
}

func TestUBMalformedPairDrainsBatch(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2})
	c := dial(t, srv)

	// A malformed pair mid-block: the block is rejected all-or-nothing,
	// the remaining lines are consumed, and the connection stays usable.
	if _, err := c.Raw("UB 3\n1 10\nbogus line\n3 30"); err == nil {
		t.Fatal("malformed batch accepted")
	}
	if err := c.Update(7, 100); err != nil {
		t.Fatalf("connection unusable after rejected batch: %v", err)
	}
	est, _, _, err := c.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	if est != 100 {
		t.Fatalf("estimate=%d, want 100", est)
	}
	// The rejected block applied nothing.
	if est, _, _, _ := c.Query(1); est != 0 {
		t.Fatalf("rejected batch leaked: estimate(1)=%d", est)
	}
}

func TestWindowCommandsOverWire(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2, WindowIntervals: 3})
	c := dial(t, srv)

	if err := c.Update(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateBatch([]int64{2, 2, 3}, []int64{50, 25, 10}); err != nil {
		t.Fatal(err)
	}

	// Window-scoped point query sees the head interval.
	est, lb, ub, err := c.Window(1).Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if est != 100 || lb != 100 || ub != 100 {
		t.Fatalf("WIN EST: (%d, %d, %d), want (100, 100, 100)", est, lb, ub)
	}

	rows, err := c.Window(3).TopK(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Item != 1 || rows[1].Item != 2 || rows[1].Estimate != 75 {
		t.Fatalf("WIN TOPK: %v", rows)
	}

	fi, err := c.Window(3).FrequentItemsAboveThreshold(20, freq.NoFalseNegatives)
	if err != nil {
		t.Fatal(err)
	}
	if len(fi) != 2 {
		t.Fatalf("WIN FI: %v", fi)
	}

	// Rotate twice: the updates stay inside a 3-interval window, then
	// fall out on the third rotation.
	for want := int64(1); want <= 2; want++ {
		got, err := c.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("rotations=%d, want %d", got, want)
		}
	}
	if est, _, _, _ := c.Window(3).Query(1); est != 100 {
		t.Fatalf("update expired early: %d", est)
	}
	// Width 1 scopes to the (empty) current interval.
	if est, _, _, _ := c.Window(1).Query(1); est != 0 {
		t.Fatalf("WIN 1 EST sees old intervals: %d", est)
	}
	if _, err := c.Rotate(); err != nil {
		t.Fatal(err)
	}
	if est, _, _, _ := c.Window(3).Query(1); est != 0 {
		t.Fatalf("update survived full window: %d", est)
	}

	// The all-time summary is unscoped by rotation.
	est, _, _, err = c.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if est != 100 {
		t.Fatalf("all-time estimate=%d, want 100", est)
	}
}

func TestWindowSnapshotOverWire(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2, WindowIntervals: 4})
	c := dial(t, srv)

	if err := c.Update(11, 70); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(22, 30); err != nil {
		t.Fatal(err)
	}

	// A width-2 snapshot covers both intervals; width-1 only the head.
	snap2, err := c.Window(2).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Estimate(11) != 70 || snap2.Estimate(22) != 30 || snap2.StreamWeight() != 100 {
		t.Fatalf("width-2 snapshot wrong: %v", snap2)
	}
	snap1, err := c.Window(1).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap1.Estimate(11) != 0 || snap1.Estimate(22) != 30 {
		t.Fatalf("width-1 snapshot wrong: %v", snap1)
	}
}

func TestResetClearsWindowToo(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2, WindowIntervals: 3})
	c := dial(t, srv)
	if err := c.Update(9, 250); err != nil {
		t.Fatal(err)
	}
	if est, _, _, _ := c.Window(3).Query(9); est != 250 {
		t.Fatalf("pre-reset window estimate=%d", est)
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if est, _, _, err := c.Query(9); err != nil || est != 0 {
		t.Fatalf("all-time after RESET: est=%d, err=%v", est, err)
	}
	if est, _, _, err := c.Window(3).Query(9); err != nil || est != 0 {
		t.Fatalf("window after RESET: est=%d, err=%v (the windowed twin kept pre-reset data)", est, err)
	}
}

func TestWindowCommandsWithoutWindowErr(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2})
	c := dial(t, srv)
	if _, err := c.Rotate(); err == nil || !strings.Contains(err.Error(), "no window") {
		t.Fatalf("ROTATE without window: %v", err)
	}
	if _, _, _, err := c.Window(1).Query(7); err == nil || !strings.Contains(err.Error(), "no window") {
		t.Fatalf("WIN without window: %v", err)
	}
	// The connection survives both rejections.
	if err := c.Update(7, 1); err != nil {
		t.Fatal(err)
	}
}

// TestClusterWindowFanout is the fleet-wide rolling top-k: every node
// keeps its own sliding window, RefreshWindow fans out window-scoped
// snapshots, and the merged coordinator view answers over the union of
// the nodes' recent intervals only.
func TestClusterWindowFanout(t *testing.T) {
	const nodes = 3
	addrs := make([]string, nodes)
	clients := make([]*Client[int64], nodes)
	for i := range addrs {
		srv := startServer(t, Config{MaxCounters: 1024, Shards: 2, WindowIntervals: 3})
		addrs[i] = srv.addr
		clients[i] = dial(t, srv)
	}
	// Old traffic on every node: item 100 dominates, then ages out of
	// each node's window after 3 rotations.
	for i, c := range clients {
		if err := c.Update(100, 1000); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			if _, err := c.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		// Recent traffic: a shared item plus one per-node item. Windowed
		// singles buffer per connection exactly like all-time ones; a
		// read on the ingesting connection flushes them before the
		// cluster snapshots from its own connections.
		if err := c.Update(7, int64(10*(i+1))); err != nil {
			t.Fatal(err)
		}
		if err := c.Update(int64(200+i), 5); err != nil {
			t.Fatal(err)
		}
		if est, _, _, err := c.Window(3).Query(7); err != nil || est != int64(10*(i+1)) {
			t.Fatalf("node %d window estimate=%d, err=%v", i, est, err)
		}
	}

	cl, err := DialCluster[int64](addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.RefreshWindow(3); err != nil {
		t.Fatal(err)
	}
	// The merged window view sums the live intervals across the fleet
	// and excludes the expired traffic entirely.
	if got := cl.Estimate(7); got != 60 {
		t.Fatalf("fleet window estimate(7)=%d, want 60", got)
	}
	if got := cl.Estimate(100); got != 0 {
		t.Fatalf("expired traffic in fleet window: estimate(100)=%d", got)
	}
	if got := cl.StreamWeight(); got != 75 {
		t.Fatalf("fleet window N=%d, want 75", got)
	}
	v, err := cl.View()
	if err != nil {
		t.Fatal(err)
	}
	if rows := v.Query().Limit(2).Collect(); len(rows) != 2 || rows[0].Item != 7 || rows[0].Estimate != 60 {
		t.Fatalf("fleet rolling TopK: %v", rows)
	}

	// A full (all-time) refresh still sees the expired traffic.
	if err := cl.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := cl.Estimate(100); got != 3000 {
		t.Fatalf("all-time estimate(100)=%d, want 3000", got)
	}
}
