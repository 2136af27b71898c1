// Binary framing tests: negotiation (upgrade, fallback against old
// servers, malformed HELLO without desync), the alloc-free decode-loop
// guarantee, frame-level error handling, and the concurrent soak that
// asserts weight conservation under writers + rotations + RANGE reads.
package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/freq"
)

func TestNegotiateUpgrade(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 512, Shards: 2})
	c, err := Dial[int64](srv.addr, WithBinary())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Binary() {
		t.Fatal("WithBinary dial did not negotiate binary framing")
	}
	// Full command surface over binary: updates, batch, query, snapshot.
	if err := c.Update(7, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateBatch([]int64{7, 8}, []int64{23, 45}); err != nil {
		t.Fatal(err)
	}
	est, lb, ub, err := c.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	if est != 123 || lb != 123 || ub != 123 {
		t.Fatalf("EST over binary: (%d, %d, %d), want (123, 123, 123)", est, lb, ub)
	}
	sk, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.Estimate(8); got != 45 {
		t.Fatalf("snapshot over binary: Estimate(8) = %d, want 45", got)
	}
}

// TestNegotiateFallbackOldServer proves a WithBinary client degrades to
// text against a server that predates HELLO: the stub answers the way
// every old build does — ERR unknown command — and the client must keep
// talking text on the still-synchronized line stream.
func TestNegotiateFallbackOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		sc := bufio.NewScanner(nc)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			switch {
			case strings.HasPrefix(line, "HELLO"):
				io.WriteString(nc, "ERR unknown command \"HELLO\"\n")
			case strings.HasPrefix(line, "U "):
				io.WriteString(nc, "OK\n")
			case line == "QUIT":
				io.WriteString(nc, "BYE\n")
				return
			}
		}
	}()
	c, err := Dial[int64](ln.Addr().String(), WithBinary())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Binary() {
		t.Fatal("client negotiated binary against a server without HELLO")
	}
	if err := c.Update(1, 1); err != nil {
		t.Fatalf("text fallback unusable after declined HELLO: %v", err)
	}
}

// TestHelloMalformed drives every malformed HELLO shape and asserts the
// server answers a sanitized one-line ERR with the connection still
// synchronized and in text framing — the negotiation mirror of the UB
// drain fix.
func TestHelloMalformed(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 512, Shards: 2})
	c := dial(t, srv)
	lines := []string{
		"HELLO",
		"HELLO BIN",
		"HELLO BIN 1 EXTRA",
		"HELLO BIN 3",
		"HELLO BIN 0",
		"HELLO BIN notanumber",
		"HELLO GOPHER 1",
		"HELLO TEXT 9",
	}
	for _, line := range lines {
		resp, err := c.Raw(line)
		if err == nil {
			t.Fatalf("%q: accepted with %q, want ERR", line, resp)
		}
		if strings.ContainsRune(err.Error(), '\n') {
			t.Fatalf("%q: multi-line ERR %q", line, err)
		}
		// The connection must remain synchronized and in text framing.
		if err := c.Update(3, 7); err != nil {
			t.Fatalf("connection desynchronized after %q: %v", line, err)
		}
	}
	// Explicit text confirmation is not an error and changes nothing.
	resp, err := c.Raw("HELLO TEXT 1")
	if err != nil || resp != "HELLO TEXT 1" {
		t.Fatalf("HELLO TEXT 1: %q, %v", resp, err)
	}
	est, _, _, err := c.Query(3)
	if want := int64(7 * len(lines)); err != nil || est != want {
		t.Fatalf("EST after HELLO gauntlet: %d, %v, want %d", est, err, want)
	}
}

// pairsFrame encodes one opPairs frame holding pairs of (item, weight).
func pairsFrame(items, weights []int64) []byte {
	buf := make([]byte, frameHeader+len(items)*pairSize)
	buf[0] = opPairs
	binary.LittleEndian.PutUint32(buf[1:], uint32(len(items)*pairSize))
	for i := range items {
		binary.LittleEndian.PutUint64(buf[frameHeader+i*pairSize:], uint64(items[i]))
		binary.LittleEndian.PutUint64(buf[frameHeader+i*pairSize+8:], uint64(weights[i]))
	}
	return buf
}

// TestBinaryFrameErrors exercises frame-level violations: a misaligned
// pairs length and an unknown opcode keep the connection usable; an
// oversized announced length answers once and drops it.
func TestBinaryFrameErrors(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 512, Shards: 2})
	nc, err := net.Dial("tcp", srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := bufio.NewReader(nc)
	io.WriteString(nc, "HELLO BIN 1\n")
	if line, _ := r.ReadString('\n'); strings.TrimSpace(line) != "HELLO BIN 1" {
		t.Fatalf("negotiation reply %q", line)
	}
	readReply := func() string {
		t.Helper()
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			t.Fatal(err)
		}
		if hdr[0] != opReply {
			t.Fatalf("opcode 0x%02x, want opReply", hdr[0])
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr[1:]))
		if _, err := io.ReadFull(r, payload); err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(string(payload))
	}

	// Misaligned pairs payload: ERR, then the stream keeps working.
	nc.Write([]byte{opPairs, 3, 0, 0, 0, 0xaa, 0xbb, 0xcc})
	if rep := readReply(); !strings.HasPrefix(rep, "ERR ") {
		t.Fatalf("misaligned pairs frame: %q, want ERR", rep)
	}
	// Unknown opcode: ERR, payload discarded, stream keeps working.
	nc.Write([]byte{0x7f, 2, 0, 0, 0, 0x01, 0x02})
	if rep := readReply(); !strings.HasPrefix(rep, "ERR ") {
		t.Fatalf("unknown opcode: %q, want ERR", rep)
	}
	// A well-formed frame after both violations still lands.
	nc.Write(pairsFrame([]int64{5}, []int64{50}))
	if rep := readReply(); rep != "OK 1" {
		t.Fatalf("pairs frame after violations: %q, want OK 1", rep)
	}
	// Negative weight: all-or-nothing ERR, connection alive.
	nc.Write(pairsFrame([]int64{6, 7}, []int64{1, -2}))
	if rep := readReply(); !strings.HasPrefix(rep, "ERR ") {
		t.Fatalf("negative pairs frame: %q, want ERR", rep)
	}
	nc.Write(pairsFrame([]int64{5}, []int64{1}))
	if rep := readReply(); rep != "OK 1" {
		t.Fatalf("pairs frame after rejection: %q, want OK 1", rep)
	}
	// Oversized announced length: one ERR, then the server drops us.
	hdr := []byte{opPairs, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[1:], MaxFrameBytes+1)
	nc.Write(hdr)
	if rep := readReply(); !strings.HasPrefix(rep, "ERR ") {
		t.Fatalf("oversized frame: %q, want ERR", rep)
	}
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("connection survived an oversized frame announcement")
	}
}

// TestBinaryLoopZeroAlloc is the acceptance gate on the server's frame
// decode loop: steady-state pairs-frame ingest performs zero heap
// allocations per frame. The loop runs against an in-memory stream with
// a warmed connection (buffers sized, sketch tables at full size). With
// 256 distinct items the 4096 counters never fill; with 16384 every
// stream makes the shards decrement (Algorithm 4's DecrementCounters),
// and the purge must not allocate either.
func TestBinaryLoopZeroAlloc(t *testing.T) {
	const counters, npairs, nframes = 4096, 512, 32
	for _, distinct := range []int{256, 16384} {
		t.Run(fmt.Sprintf("distinct=%d", distinct), func(t *testing.T) {
			srv, err := New(Config{MaxCounters: counters, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			writer, err := freq.NewWriter(srv.sketch)
			if err != nil {
				t.Fatal(err)
			}
			var stream []byte
			items := make([]int64, npairs)
			weights := make([]int64, npairs)
			for f := range nframes {
				for i := range items {
					items[i] = int64((f*npairs + i) % distinct)
					weights[i] = int64(1 + i%5)
				}
				stream = append(stream, pairsFrame(items, weights)...)
			}
			br := bytes.NewReader(stream)
			nw := bufio.NewWriter(io.Discard)
			c := &conn{srv: srv, st: &connState{}, r: bufio.NewReaderSize(br, 64*1024), nw: nw, w: nw, writer: writer, bin: true}
			run := func() {
				br.Reset(stream)
				c.r.Reset(br)
				c.binaryLoop()
			}
			run() // warm: pairBuf, okBuf, sketch counters all reach steady state
			offset := srv.sketch.MaximumError()
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Fatalf("binary decode loop allocates %.1f times per stream of %d frames, want 0", allocs, nframes)
			}
			if decremented := srv.sketch.MaximumError() > offset; decremented != (distinct > counters) {
				t.Fatalf("%d distinct items into %d counters: decremented = %v", distinct, counters, decremented)
			}
		})
	}
}

// TestBinarySoakWeightConservation is the race-mode soak: concurrent
// binary writers, concurrent rotations draining into the durable store,
// and concurrent RANGE/TOPK readers — and at the end the all-time
// summary holds exactly the weight the writers shipped.
func TestBinarySoakWeightConservation(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	srv, _ := startStoredServer(t, base)

	const (
		writers  = 6
		batches  = 25
		batchLen = 400
	)
	var sent atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})

	// Rotator: advance the window on an artificial strictly-increasing
	// clock while the writers run.
	rotDone := make(chan struct{})
	go func() {
		defer close(rotDone)
		for i := 1; ; i++ {
			select {
			case <-done:
				return
			case <-time.After(200 * time.Microsecond):
				srv.Windowed().RotateAt(base.Add(time.Duration(i) * time.Second))
			}
		}
	}()

	// Readers: hammer RANGE and TOPK from a text and a binary client.
	readerErr := make(chan error, 2)
	for _, binMode := range []bool{false, true} {
		wg.Add(1)
		go func(binMode bool) {
			defer wg.Done()
			var opts []ClientOption
			if binMode {
				opts = append(opts, WithBinary())
			}
			c, err := Dial[int64](srv.addr, opts...)
			if err != nil {
				readerErr <- err
				return
			}
			defer c.Close()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, _, _, err := c.Range(base, base.Add(time.Hour)).Query(1); err != nil {
					readerErr <- err
					return
				}
				if _, err := c.TopK(5); err != nil {
					readerErr <- err
					return
				}
			}
		}(binMode)
	}

	// Writers: binary pairs frames, every batch all-valid.
	werr := make(chan error, writers)
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			c, err := Dial[int64](srv.addr, WithBinary())
			if err != nil {
				werr <- err
				return
			}
			defer c.Close()
			if !c.Binary() {
				werr <- io.ErrUnexpectedEOF
				return
			}
			items := make([]int64, batchLen)
			weights := make([]int64, batchLen)
			for b := 0; b < batches; b++ {
				var total int64
				for i := range items {
					items[i] = int64((w*batches+b)*batchLen + i%97)
					weights[i] = int64(1 + (i+b)%9)
					total += weights[i]
				}
				if err := c.UpdateBatch(items, weights); err != nil {
					werr <- err
					return
				}
				sent.Add(total)
			}
		}(w)
	}
	writerWG.Wait()
	close(done)
	wg.Wait()
	<-rotDone
	close(werr)
	for err := range werr {
		t.Fatal(err)
	}
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}

	// Writers closed their connections (QUIT flushes the per-connection
	// writer), so the all-time summary must hold every unit of weight.
	if got, want := srv.Sketch().StreamWeight(), sent.Load(); got != want {
		t.Fatalf("stream weight %d after soak, want %d (conservation broke)", got, want)
	}
	if err := srv.Windowed().SinkErr(); err != nil {
		t.Fatal(err)
	}
}
