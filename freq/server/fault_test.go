package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netfault"
)

// blackHoleServer accepts connections and swallows everything without
// ever replying — the shape of a wedged peer, as opposed to a dead one.
func blackHoleServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	return ln.Addr().String()
}

// TestFaultRetryRecoversIdempotentRead drives a query through a
// connection that dies mid-reply: the client must classify the failure
// as transport, re-dial, and transparently succeed on the retry.
func TestFaultRetryRecoversIdempotentRead(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 4})

	// Seed weight through a clean client; Close flushes it server-side.
	seed, err := Dial[int64](srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Update(7, 100); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	var dials atomic.Int64
	dialer := func() (net.Conn, error) {
		nc, err := net.Dial("tcp", srv.addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			// The first connection dies after delivering a single reply
			// byte: the query's read fails mid-line.
			return (&netfault.Chaos{ReadCut: 1}).Conn(nc), nil
		}
		return nc, nil
	}
	c, err := Dial[int64](srv.addr, WithDialer(dialer), WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	est, _, _, err := c.Query(7)
	if err != nil {
		t.Fatalf("Query through flaky connection: %v", err)
	}
	if est != 100 {
		t.Fatalf("Query(7) = %d, want 100", est)
	}
	if got := c.Retries(); got < 1 {
		t.Fatalf("Retries() = %d, want >= 1 (the first reply was cut)", got)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("%d dials, want 2 (original + one reconnect)", got)
	}
}

// TestFaultNonIdempotentNeverRetries cuts an update's write mid-line:
// even with retries configured, ingest must fail after exactly one
// attempt with a typed *TransportError, and no weight may land.
func TestFaultNonIdempotentNeverRetries(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 4})

	dialer := func() (net.Conn, error) {
		nc, err := net.Dial("tcp", srv.addr)
		if err != nil {
			return nil, err
		}
		// "U 7 100\n" is 8 bytes; a 4-byte budget cuts it mid-line.
		return (&netfault.Chaos{WriteCut: 4}).Conn(nc), nil
	}
	c, err := Dial[int64](srv.addr, WithDialer(dialer), WithRetry(5, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Update(7, 100)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("Update over cut connection = %v, want *TransportError", err)
	}
	if te.Op != "U" || te.Attempts != 1 {
		t.Fatalf("TransportError = op %q after %d attempts, want U after exactly 1", te.Op, te.Attempts)
	}
	if got := c.Retries(); got != 0 {
		t.Fatalf("Retries() = %d, want 0: ingest must never auto-retry", got)
	}
	if n, _, err := dialStats(t, srv); err != nil || n != 0 {
		t.Fatalf("server weight = %d (err %v), want 0: the cut update must not land", n, err)
	}
}

// TestFaultIOTimeoutFires points a client at a wedged (accepting,
// never replying) peer: the IO deadline must fail the round trip as a
// timeout-classed transport error instead of hanging.
func TestFaultIOTimeoutFires(t *testing.T) {
	addr := blackHoleServer(t)
	c, err := Dial[int64](addr, WithIOTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, _, _, err = c.Query(7)
	elapsed := time.Since(start)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("Query against black hole = %v, want *TransportError", err)
	}
	if !te.Timeout() {
		t.Fatalf("error %v must classify as a timeout", te)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire, want ~50ms", elapsed)
	}
}

// TestFaultCloseBoundedAgainstDeadPeer verifies the Close handshake
// cannot hang on a peer that never sends BYE.
func TestFaultCloseBoundedAgainstDeadPeer(t *testing.T) {
	addr := blackHoleServer(t)
	c, err := Dial[int64](addr, WithIOTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %v against a dead peer, want the bounded ~50ms grace", elapsed)
	}
}

// TestFaultMidPairsKillConservesWeight is the ingest-safety acceptance
// test: a connection killed mid-PAIRS-frame must lose that frame
// entirely — no partial ingest, no desync — and the frames before and
// after (on the reconnected transport) must land exactly once.
func TestFaultMidPairsKillConservesWeight(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 4})

	// Byte budget for the chaotic connection: the HELLO line (12), one
	// whole 4-pair frame (5+64), and a second frame's header plus half a
	// pair — the server's payload read starves mid-frame.
	const budget = 12 + (5 + 64) + 5 + 8
	var dials atomic.Int64
	dialer := func() (net.Conn, error) {
		nc, err := net.Dial("tcp", srv.addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			return (&netfault.Chaos{WriteCut: budget}).Conn(nc), nil
		}
		return nc, nil
	}
	c, err := Dial[int64](srv.addr, WithBinary(), WithDialer(dialer), WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Binary() {
		t.Fatal("client did not negotiate binary framing")
	}

	items := []int64{1, 2, 3, 4}
	weights := []int64{10, 10, 10, 10}

	// Frame 1 fits the budget and lands.
	if err := c.UpdateBatch(items, weights); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	// Frame 2 is cut mid-payload: a typed transport failure, no retry.
	err = c.UpdateBatch(items, weights)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("cut batch = %v, want *TransportError", err)
	}
	if te.Attempts != 1 {
		t.Fatalf("cut batch made %d attempts, want exactly 1 (no ingest retry)", te.Attempts)
	}
	// Frame 3 rides a transparent reconnect (re-dial + re-negotiation).
	if err := c.UpdateBatch(items, weights); err != nil {
		t.Fatalf("batch after reconnect: %v", err)
	}
	if !c.Binary() {
		t.Fatal("reconnect lost the binary framing negotiation")
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("%d dials, want 2", got)
	}

	// Exactly frames 1 and 3: 80. The killed handler flushes its buffered
	// ingest asynchronously, so poll briefly before judging.
	want := int64(80)
	deadline := time.Now().Add(2 * time.Second)
	var n int64
	for {
		if n, _, err = c.Stats(); err != nil {
			t.Fatalf("Stats: %v", err)
		}
		if n == want || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n != want {
		t.Fatalf("server weight = %d, want %d: the mid-frame kill must lose its frame whole, and nothing else", n, want)
	}
}

// threeNodeCluster boots three servers, ingests a distinct item on
// each (weights 100, 200, 300), and returns them with their addrs.
func threeNodeCluster(t *testing.T, opts ...ClusterOption) (*Cluster[int64], []*testServer, []string) {
	t.Helper()
	srvs := make([]*testServer, 3)
	addrs := make([]string, 3)
	for i := range srvs {
		srvs[i] = startServer(t, Config{MaxCounters: 1024, Shards: 4})
		addrs[i] = srvs[i].addr
		c := dial(t, srvs[i])
		if err := c.Update(int64(i+1), int64((i+1)*100)); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cluster, err := DialCluster[int64](addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	return cluster, srvs, addrs
}

// TestFaultClusterDegradedRefresh is the partial-failure acceptance
// test: with one of three nodes down, Refresh must succeed with a
// merged view over the survivors and a Manifest naming the dead node —
// not return an error.
func TestFaultClusterDegradedRefresh(t *testing.T) {
	cluster, srvs, addrs := threeNodeCluster(t, WithNodeTimeout(5*time.Second))

	// Healthy baseline: all three nodes contribute.
	if err := cluster.Refresh(); err != nil {
		t.Fatalf("healthy refresh: %v", err)
	}
	if got := cluster.StreamWeight(); got != 600 {
		t.Fatalf("healthy merged weight = %d, want 600", got)
	}
	m := cluster.Manifest()
	if m.Healthy() != 3 || m.Degraded() {
		t.Fatalf("healthy manifest: %d healthy, degraded=%v", m.Healthy(), m.Degraded())
	}
	for _, ns := range m.Nodes {
		if ns.SnapshotBytes <= 0 {
			t.Fatalf("node %s reports %d snapshot bytes, want > 0", ns.Addr, ns.SnapshotBytes)
		}
	}

	// Kill the middle node; the fleet must answer anyway.
	srvs[1].Close()
	if err := cluster.Refresh(); err != nil {
		t.Fatalf("degraded refresh returned error %v, want merged view over survivors", err)
	}
	m = cluster.Manifest()
	if m.Healthy() != 2 || !m.Degraded() {
		t.Fatalf("degraded manifest: %d healthy, degraded=%v, want 2 and true", m.Healthy(), m.Degraded())
	}
	if dead := m.Dead(); len(dead) != 1 || dead[0] != addrs[1] {
		t.Fatalf("Dead() = %v, want exactly [%s]", dead, addrs[1])
	}
	if got := cluster.StreamWeight(); got != 400 {
		t.Fatalf("degraded merged weight = %d, want 400 (nodes 1 and 3)", got)
	}
	if !cluster.Degraded() {
		t.Fatal("Cluster.Degraded() = false after a degraded refresh")
	}
}

// TestFaultClusterBelowQuorumKeepsView verifies that a refresh that
// cannot meet quorum fails loudly and leaves the previous view (and
// manifest) serving.
func TestFaultClusterBelowQuorumKeepsView(t *testing.T) {
	cluster, srvs, _ := threeNodeCluster(t, WithQuorum(3))

	if err := cluster.Refresh(); err != nil {
		t.Fatalf("healthy refresh: %v", err)
	}
	srvs[2].Close()
	err := cluster.Refresh()
	if err == nil {
		t.Fatal("refresh below quorum must fail")
	}
	if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("below-quorum error %q does not mention quorum", err)
	}
	// The previous (full) view still answers.
	if got := cluster.StreamWeight(); got != 600 {
		t.Fatalf("weight after failed refresh = %d, want the retained 600", got)
	}
	if cluster.Manifest().Degraded() {
		t.Fatal("failed refresh must not install a degraded manifest")
	}
}

// TestFaultClusterNodeTimeoutAborts points one cluster node at a black
// hole: the per-node timeout must cut its leg of the fan-out and the
// refresh must proceed with the live nodes.
func TestFaultClusterNodeTimeoutAborts(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 4})
	seed := dial(t, srv)
	if err := seed.Update(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	hole := blackHoleServer(t)

	cluster, err := DialCluster[int64]([]string{srv.addr, hole},
		WithNodeTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	start := time.Now()
	if err := cluster.Refresh(); err != nil {
		t.Fatalf("refresh with one wedged node: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("refresh took %v, want the ~100ms node timeout to bound it", elapsed)
	}
	m := cluster.Manifest()
	if m.Healthy() != 1 || !m.Degraded() {
		t.Fatalf("manifest: %d healthy, degraded=%v, want 1 and true", m.Healthy(), m.Degraded())
	}
	if dead := m.Dead(); len(dead) != 1 || dead[0] != hole {
		t.Fatalf("Dead() = %v, want [%s]", dead, hole)
	}
	if got := cluster.StreamWeight(); got != 100 {
		t.Fatalf("merged weight = %d, want the live node's 100", got)
	}
}

// TestFaultClusterCloseJoinsAllErrors verifies Close attempts every
// node and reports every failure, not just the first.
func TestFaultClusterCloseJoinsAllErrors(t *testing.T) {
	srvA := startServer(t, Config{MaxCounters: 512, Shards: 2})
	srvB := startServer(t, Config{MaxCounters: 512, Shards: 2})
	ca, err := Dial[int64](srvA.addr)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Dial[int64](srvB.addr)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster([]*Client[int64]{ca, cb})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage both connections so both closes fail.
	ca.conn.Close()
	cb.conn.Close()
	cerr := cluster.Close()
	if cerr == nil {
		t.Fatal("Close over two sabotaged connections returned nil")
	}
	if n := strings.Count(cerr.Error(), "use of closed network connection"); n != 2 {
		t.Fatalf("joined close error reports %d node failures, want 2: %v", n, cerr)
	}
}

// TestFaultInjectedErrorClassifiesAsTransport pins the contract between
// the harness and the client: an injected fault must be treated exactly
// like a real peer failure.
func TestFaultInjectedErrorClassifiesAsTransport(t *testing.T) {
	te := transportErr(fmt.Errorf("read tcp: %w", netfault.ErrInjected))
	if te == nil || te.Timeout() {
		t.Fatalf("injected fault wrapped as %v; want non-timeout transport error", te)
	}
	if !isTransport(te) {
		t.Fatal("wrapped injected fault must classify as transport")
	}
}

// TestFaultBrokenPeerCountsAreTransportErrors answers a client's read
// from a fake peer over net.Pipe with a reply header whose count is
// negative, past any summary's size, or large and never followed by
// its bytes, then hangs up. In both framings the client must return a
// transport error, never panic, and allocate under 1 MiB whatever the
// peer claimed.
func TestFaultBrokenPeerCountsAreTransportErrors(t *testing.T) {
	cases := []struct {
		reply string
		// frameLen, when set, is the payload length the binary peer's
		// reply frame header announces instead of len(reply). Text
		// framing has no frame header, so such a case is binary only.
		frameLen uint32
		read     func(c *Client[int64]) error
	}{
		{"SNAP -5\n", 0, snapshotErr},
		{"MULTI -1\n", 0, topKErr},
		{"SNAP 1099511627776\n", 0, snapshotErr},
		{"MULTI 1099511627776\n", 0, topKErr},
		{"SNAP 536870912\n", 0, snapshotErr},
		{"MULTI 50000000\n", 0, topKErr},
		{"", MaxFrameBytes, topKErr},
	}
	for _, framing := range framings[:2] {
		bin := framing == "bin2"
		for _, tc := range cases {
			name := strings.TrimSpace(tc.reply)
			if tc.frameLen != 0 {
				if !bin {
					continue
				}
				name = fmt.Sprintf("frame %d", tc.frameLen)
			}
			t.Run(framing+"/"+name, func(t *testing.T) {
				clientEnd, peerEnd := net.Pipe()
				done := make(chan struct{})
				go func() {
					defer close(done)
					defer peerEnd.Close()
					fakePeerReply(peerEnd, bin, tc.reply, tc.frameLen)
				}()
				c := NewClient[int64](clientEnd)
				if bin {
					c.bin, c.binVer = true, 2
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := tc.read(c)
				runtime.ReadMemStats(&after)
				c.Close()
				<-done
				if !isTransport(err) {
					t.Fatalf("error %v, want a transport error", err)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
					t.Errorf("client allocated %d bytes on a reply the peer never sent", grew)
				}
			})
		}
	}
}

func snapshotErr(c *Client[int64]) error { _, err := c.Snapshot(); return err }

func topKErr(c *Client[int64]) error { _, err := c.TopK(5); return err }

// fakePeerReply reads one command from conn, text line or binary frame,
// and answers it with reply, framed to match. A binary reply frame's
// header announces frameLen bytes if it is set, else len(reply).
func fakePeerReply(conn net.Conn, bin bool, reply string, frameLen uint32) {
	r := bufio.NewReader(conn)
	if !bin {
		if _, err := r.ReadString('\n'); err == nil {
			io.WriteString(conn, reply)
		}
		return
	}
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	if _, err := io.CopyN(io.Discard, r, int64(binary.LittleEndian.Uint32(hdr[1:]))); err != nil {
		return
	}
	if frameLen == 0 {
		frameLen = uint32(len(reply))
	}
	hdr[0] = opReply
	binary.LittleEndian.PutUint32(hdr[1:], frameLen)
	conn.Write(append(hdr[:], reply...))
}

// scriptedPeer serves a scripted peer on loopback TCP: it answers every
// command, text line or binary frame, with answer(cmd) in the same
// framing. It accepts HELLO BIN 2, answers QUIT with BYE, and counts
// the connections it accepts, so a test can see a client redial.
func scriptedPeer(t *testing.T, answer func(cmd string) string) (addr string, conns *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns = new(atomic.Int64)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		open   []net.Conn
		closed bool
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		closed = true
		for _, c := range open {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			mu.Lock()
			if closed {
				mu.Unlock()
				c.Close()
				return
			}
			open = append(open, c)
			wg.Add(1)
			mu.Unlock()
			go func() {
				defer wg.Done()
				defer c.Close()
				serveScript(c, answer)
			}()
		}
	}()
	return ln.Addr().String(), conns
}

// serveScript answers the commands on one scripted-peer connection until
// the client quits or hangs up.
func serveScript(c net.Conn, answer func(cmd string) string) {
	r := bufio.NewReader(c)
	bin := false
	for {
		var cmd string
		if bin {
			var hdr [frameHeader]byte
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				return
			}
			payload := make([]byte, binary.LittleEndian.Uint32(hdr[1:]))
			if _, err := io.ReadFull(r, payload); err != nil {
				return
			}
			cmd = string(payload)
		} else {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			cmd = strings.TrimSpace(line)
		}
		var reply string
		switch cmd {
		case "HELLO BIN 2":
			reply = cmd + "\n"
		case "QUIT":
			reply = "BYE\n"
		default:
			reply = answer(cmd)
		}
		if bin {
			hdr := [frameHeader]byte{opReply}
			binary.LittleEndian.PutUint32(hdr[1:], uint32(len(reply)))
			reply = string(hdr[:]) + reply
		}
		if _, err := io.WriteString(c, reply); err != nil || cmd == "QUIT" {
			return
		}
		bin = bin || cmd == "HELLO BIN 2"
	}
}

// TestFaultUnparseableReplyRedials pins the reply parsers' contract in
// both framings: a reply that is not ERR and does not parse is a
// transport error, so the client redials instead of reading the reply's
// unread rest as the next command's answer. The scripted peer answers
// TOPK with a MULTI block whose first row is garbage, and EST <item>
// with <item> as estimate and both bounds.
func TestFaultUnparseableReplyRedials(t *testing.T) {
	answer := func(cmd string) string {
		if item, ok := strings.CutPrefix(cmd, "EST "); ok {
			return fmt.Sprintf("EST %s %s %s\n", item, item, item)
		}
		return "MULTI 2\nBOGUS\nITEM 1 2 3 4\n"
	}
	for _, framing := range framings[:2] {
		t.Run(framing, func(t *testing.T) {
			addr, conns := scriptedPeer(t, answer)
			var opts []ClientOption
			if framing == "bin2" {
				opts = append(opts, WithBinary())
			}
			c, err := Dial[int64](addr, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.Binary() != (framing == "bin2") {
				t.Fatalf("negotiated binary=%v", c.Binary())
			}
			if _, err := c.TopK(2); !isTransport(err) {
				t.Fatalf("TopK over a garbled MULTI block = %v, want a transport error", err)
			}
			for _, item := range []int64{5, 6} {
				est, lb, ub, err := c.Query(item)
				if err != nil || est != item || lb != item || ub != item {
					t.Fatalf("Query(%d) = %d %d %d, %v; want the peer's answer for %d", item, est, lb, ub, err, item)
				}
			}
			if n := conns.Load(); n != 2 {
				t.Errorf("peer accepted %d connections, want 2: one redial after the bad reply", n)
			}
		})
	}
}

// TestFaultClusterGarbageNode runs a three-node Cluster at quorum 2
// whose third node answers SNAP with garbage. Two refreshes in a row
// must each merge the two real nodes and name only the garbage node
// dead. A reply that leaves the stream unreadable makes its client
// redial on the second refresh; an ERR, or a blob of the announced
// length that does not decode, leaves the stream intact and the
// connection is kept.
func TestFaultClusterGarbageNode(t *testing.T) {
	cases := []struct {
		name, reply string
		redial      bool
	}{
		{"corrupt blob", "SNAP 8\nnotasnap", false},
		{"non-SNAP header", "OK\n", true},
		{"negative count", "SNAP -3\n", true},
		{"MULTI block", "MULTI 2\nITEM 7 1 1 1\nITEM 8 1 1 1\n", true},
		{"ERR", "ERR no snapshot here\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var nodes []*Client[int64]
			for range 2 {
				srv := startServer(t, Config{MaxCounters: 512, Shards: 2})
				c, err := Dial[int64](srv.addr)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Update(7, 100); err != nil {
					t.Fatal(err)
				}
				nodes = append(nodes, c)
			}
			bad, conns := scriptedPeer(t, func(string) string { return tc.reply })
			c, err := Dial[int64](bad)
			if err != nil {
				t.Fatal(err)
			}
			cluster, err := NewCluster(append(nodes, c), WithQuorum(2))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cluster.Close() })
			for refresh := 1; refresh <= 2; refresh++ {
				if err := cluster.Refresh(); err != nil {
					t.Fatalf("refresh %d: %v", refresh, err)
				}
				if got := cluster.Estimate(7); got != 200 {
					t.Errorf("refresh %d: Estimate(7) = %d, want 200", refresh, got)
				}
				if dead := cluster.Manifest().Dead(); len(dead) != 1 || dead[0] != bad {
					t.Errorf("refresh %d: dead nodes %v, want only %s", refresh, dead, bad)
				}
			}
			want := int64(1)
			if tc.redial {
				want = 2
			}
			if n := conns.Load(); n != want {
				t.Errorf("garbage node accepted %d connections, want %d", n, want)
			}
		})
	}
}
