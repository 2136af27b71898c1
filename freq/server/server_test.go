package server

import (
	"net"
	"strings"
	"sync"
	"testing"

	"repro/freq/stream"
)

// testServer is a started server plus its bound address.
type testServer struct {
	*Server
	addr string
}

// startServer boots a server on a loopback port and returns it with a
// cleanup registration. The listener is created here so the address is
// known before Serve races ahead in its goroutine.
func startServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return &testServer{Server: srv, addr: ln.Addr().String()}
}

func dial(t *testing.T, srv *testServer) *Client[int64] {
	t.Helper()
	c, err := Dial[int64](srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestUpdateAndQuery(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 4})
	c := dial(t, srv)

	if err := c.Update(7, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(7, 50); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(9, 10); err != nil {
		t.Fatal(err)
	}
	est, lb, ub, err := c.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	if est != 150 || lb != 150 || ub != 150 {
		t.Errorf("Query(7) = %d [%d, %d]", est, lb, ub)
	}
	if est, _, _, _ := c.Query(404); est != 0 {
		t.Errorf("unseen item estimate %d", est)
	}
	n, maxErr, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n != 160 || maxErr != 0 {
		t.Errorf("Stats = (%d, %d)", n, maxErr)
	}
	u, q := srv.Counters()
	if u != 3 || q != 2 {
		t.Errorf("counters = (%d, %d)", u, q)
	}
}

func TestTopAndHeavyHitters(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2})
	c := dial(t, srv)
	_ = c.Update(1, 5000)
	_ = c.Update(2, 3000)
	_ = c.Update(3, 100)
	top, err := c.TopK(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Item != 1 || top[1].Item != 2 {
		t.Errorf("Top = %v", top)
	}
	hh, err := c.HeavyHitters(0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hh {
		if r.Item == 3 {
			t.Error("light item in HH result")
		}
	}
	if len(hh) < 2 {
		t.Errorf("HH = %v", hh)
	}
}

func TestProtocolErrorsKeepConnectionUsable(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 512, Shards: 2})
	c := dial(t, srv)
	for _, bad := range []string{
		"NOPE",
		"U 1",
		"U x y",
		"U 1 -5",
		"Q",
		"Q abc",
		"TOP 0",
		"TOP x",
		"HH 5000",
		"HH x",
	} {
		if _, err := c.Raw(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	// Still alive.
	if err := c.Update(1, 1); err != nil {
		t.Fatalf("connection dead after errors: %v", err)
	}
}

func TestSnapshotOverWire(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 2048, Shards: 4})
	c := dial(t, srv)
	updates, err := stream.ZipfStream(1.1, 1<<10, 5_000, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int64]int64{}
	var truthN int64
	for _, u := range updates {
		if err := c.Update(u.Item, u.Weight); err != nil {
			t.Fatal(err)
		}
		truth[u.Item] += u.Weight
		truthN += u.Weight
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.StreamWeight() != truthN {
		t.Errorf("snapshot N %d, want %d", snap.StreamWeight(), truthN)
	}
	for item, want := range truth {
		if lb, ub := snap.LowerBound(item), snap.UpperBound(item); lb > want || ub < want {
			t.Fatalf("item %d: [%d, %d] misses %d", item, lb, ub, want)
		}
	}
	// Reset clears the live summary but not the snapshot.
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := c.Stats(); n != 0 {
		t.Errorf("post-reset N = %d", n)
	}
	if snap.StreamWeight() == 0 {
		t.Error("snapshot mutated by reset")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 4096, Shards: 8})
	const clients = 8
	const perClient = 2_000
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial[int64](srv.addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				if err := c.Update(int64(w*perClient+i)%500, 3); err != nil {
					t.Error(err)
					return
				}
				if i%100 == 0 {
					if _, _, _, err := c.Query(int64(i % 500)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	n, _, err := dialStats(t, srv)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(clients * perClient * 3); n != want {
		t.Errorf("total N = %d, want %d", n, want)
	}
}

func dialStats(t *testing.T, srv *testServer) (int64, int64, error) {
	t.Helper()
	c := dial(t, srv)
	return c.Stats()
}

func TestServeAfterCloseRefuses(t *testing.T) {
	srv, err := New(Config{MaxCounters: 512, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Serve after Close = %v", err)
	}
	// Double close is a no-op.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestQuit(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 512, Shards: 2})
	c, err := Dial[int64](srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Raw("QUIT")
	if err != nil || resp != "BYE" {
		t.Errorf("QUIT = %q, %v", resp, err)
	}
}

// TestUpdateBatchWire exercises the UB block end to end: a successful
// batch, all-or-nothing rejection of a bad batch, and interleaving with
// buffered single updates on the same connection.
func TestUpdateBatchWire(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 4})
	c := dial(t, srv)

	if err := c.Update(7, 5); err != nil { // buffered single, flushed before the batch
		t.Fatal(err)
	}
	items := []int64{7, 8, 9, 7}
	weights := []int64{10, 20, 30, 40}
	if err := c.UpdateBatch(items, weights); err != nil {
		t.Fatal(err)
	}
	est, _, _, err := c.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	if est != 55 {
		t.Errorf("Query(7) = %d, want 55", est)
	}

	// Negative weight rejects the whole block and keeps the connection
	// usable.
	if err := c.UpdateBatch([]int64{1, 2}, []int64{5, -1}); err == nil {
		t.Error("negative-weight batch accepted")
	}
	if est, _, _, _ := c.Query(1); est != 0 {
		t.Errorf("Query(1) = %d after rejected batch, want 0", est)
	}

	// Malformed block payload: drive the raw protocol.
	if _, err := c.Raw("UB 0"); err == nil {
		t.Error("UB 0 accepted")
	}
	n, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(5 + 10 + 20 + 30 + 40); n != want {
		t.Errorf("Stats N = %d, want %d", n, want)
	}
}

// TestBufferedVisibility pins the documented visibility contract: "OK"
// acknowledges buffering, any non-update command on the same connection
// flushes, and Close (QUIT/BYE) makes the tail visible to others.
func TestBufferedVisibility(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2})
	c := dial(t, srv)
	for i := 0; i < 10; i++ {
		if err := c.Update(42, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Read-your-writes: a query on the same connection flushes first.
	est, _, _, err := c.Query(42)
	if err != nil {
		t.Fatal(err)
	}
	if est != 10 {
		t.Errorf("same-connection Query(42) = %d, want 10", est)
	}
	for i := 0; i < 5; i++ {
		if err := c.Update(43, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, srv)
	if est, _, _, _ := c2.Query(43); est != 5 {
		t.Errorf("post-Close Query(43) = %d, want 5", est)
	}
}
