// FuzzBinaryFrameDecode throws arbitrary bytes at a freshly-negotiated
// binary connection: truncated frames, hostile lengths, version skew,
// opcode garbage. The invariants are (1) the handler never panics and
// always terminates once the peer hangs up, and (2) the server itself
// stays fully usable afterward — a poisoned connection must never
// poison the shared summary.
package server

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/freq"
	"repro/freq/tenant"
)

// FuzzTenantCommand throws arbitrary bytes at a BIN 2 connection on a
// tenant-enabled server: hostile v2 pairs frames (id-length lies,
// over-long ids, unvalidatable id bytes, ragged pair payloads) and
// TENANT command frames. Invariants mirror FuzzBinaryFrameDecode: no
// panic, the handler terminates, and the server — including its tenant
// registry — stays usable afterward.
func FuzzTenantCommand(f *testing.F) {
	// A valid v2 pairs frame scoped to tenant "alice".
	v2 := func(id string, pairs []byte) []byte {
		b := make([]byte, frameHeader+2+len(id)+len(pairs))
		b[0] = opPairs
		binary.LittleEndian.PutUint32(b[1:], uint32(2+len(id)+len(pairs)))
		binary.LittleEndian.PutUint16(b[frameHeader:], uint16(len(id)))
		copy(b[frameHeader+2:], id)
		copy(b[frameHeader+2+len(id):], pairs)
		return b
	}
	pair := make([]byte, pairSize)
	binary.LittleEndian.PutUint64(pair, 7)
	binary.LittleEndian.PutUint64(pair[8:], 100)
	f.Add(v2("alice", pair))
	// Global scope in v2: zero-length id.
	f.Add(v2("", pair))
	// Id length announces more than the payload holds.
	lying := v2("alice", pair)
	binary.LittleEndian.PutUint16(lying[frameHeader:], 500)
	f.Add(lying)
	// Id longer than MaxIDLen.
	f.Add(v2(strings.Repeat("x", 200), pair))
	// Invalid id bytes (spaces, control chars).
	f.Add(v2("bad id\x01", pair))
	// Ragged pairs after a valid id.
	f.Add(v2("alice", pair[:13]))
	// Pairs-only frame shorter than its own id-length header.
	f.Add([]byte{opPairs, 1, 0, 0, 0, 0x02})
	// TENANT text commands inside CMD frames, including the UB smuggle
	// (text-framing only) and EVICT.
	cmd := func(s string) []byte {
		b := make([]byte, frameHeader+len(s))
		b[0] = opCmd
		binary.LittleEndian.PutUint32(b[1:], uint32(len(s)))
		copy(b[frameHeader:], s)
		return b
	}
	f.Add(cmd("TENANT alice EST 7"))
	f.Add(cmd("TENANT alice UB 2"))
	f.Add(cmd("TENANT alice EVICT"))
	f.Add(cmd("TENANT " + strings.Repeat("y", 129) + " U 1 1"))
	f.Add(cmd("TENANT alice ROTATE"))

	f.Fuzz(func(t *testing.T, data []byte) {
		mgr, err := tenant.New[int64](tenant.Config{MaxCounters: 128, Shards: 2, WindowIntervals: 2, MaxTenants: 4})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{MaxCounters: 256, Shards: 2, Tenants: mgr})
		if err != nil {
			t.Fatal(err)
		}
		client, serverEnd := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(serverEnd, &connState{})
		}()
		go io.Copy(io.Discard, client)
		io.WriteString(client, "HELLO BIN 2\n")
		client.Write(data)
		client.Close()
		<-done

		// The server and its registry must remain usable afterward.
		c2, s2 := net.Pipe()
		h2 := make(chan struct{})
		go func() {
			defer close(h2)
			srv.handle(s2, &connState{})
		}()
		r := bufio.NewReader(c2)
		io.WriteString(c2, "TENANT t U 1 1\nTENANT t EST 1\nQUIT\n")
		var lines []string
		for i := 0; i < 3; i++ {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("server unusable after fuzz connection: %v (got %q)", err, lines)
			}
			lines = append(lines, strings.TrimSpace(line))
		}
		if lines[0] != "OK" || !strings.HasPrefix(lines[1], "EST ") || lines[2] != "BYE" {
			t.Fatalf("server misbehaving after fuzz connection: %q", lines)
		}
		c2.Close()
		<-h2
	})
}

func FuzzBinaryFrameDecode(f *testing.F) {
	// A valid pairs frame.
	f.Add(pairsFrame([]int64{7, 8}, []int64{100, 50}))
	// Truncated pairs frame: header promises more than arrives.
	f.Add([]byte{opPairs, 32, 0, 0, 0, 1, 2, 3})
	// Hostile length: 4 GiB-ish announcement.
	f.Add([]byte{opPairs, 0xff, 0xff, 0xff, 0xff})
	// Exactly the cap plus one.
	hostile := []byte{opPairs, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hostile[1:], MaxFrameBytes+1)
	f.Add(hostile)
	// Unknown opcodes, empty frames, reply opcode from a client.
	f.Add([]byte{0x00, 0, 0, 0, 0})
	f.Add([]byte{opReply, 4, 0, 0, 0, 'O', 'K', ' ', '1'})
	// A command frame, and one smuggling a newline / a UB.
	f.Add([]byte{opCmd, 6, 0, 0, 0, 'E', 'S', 'T', ' ', '4', '2'})
	f.Add([]byte{opCmd, 9, 0, 0, 0, 'E', 'S', 'T', '\n', 'T', 'O', 'P', 'K', '1'})
	f.Add([]byte{opCmd, 4, 0, 0, 0, 'U', 'B', ' ', '2'})
	// Version skew attempt re-negotiated mid-binary.
	f.Add([]byte{opCmd, 11, 0, 0, 0, 'H', 'E', 'L', 'L', 'O', ' ', 'B', 'I', 'N', ' ', '2'})
	// Bare header, no payload at all.
	f.Add([]byte{opPairs, 16, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		srv, err := New(Config{MaxCounters: 256, Shards: 2, WindowIntervals: 2})
		if err != nil {
			t.Fatal(err)
		}
		client, serverEnd := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(serverEnd, &connState{})
		}()
		// net.Pipe is synchronous: drain replies so the handler's writes
		// never block against our writes.
		go io.Copy(io.Discard, client)
		io.WriteString(client, "HELLO BIN 1\n")
		client.Write(data)
		client.Close()
		<-done

		// The server must remain usable after the hostile connection.
		c2, s2 := net.Pipe()
		h2 := make(chan struct{})
		go func() {
			defer close(h2)
			srv.handle(s2, &connState{})
		}()
		r := bufio.NewReader(c2)
		io.WriteString(c2, "U 1 1\nEST 1\nQUIT\n")
		var lines []string
		for i := 0; i < 3; i++ {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("server unusable after fuzz connection: %v (got %q)", err, lines)
			}
			lines = append(lines, strings.TrimSpace(line))
		}
		if lines[0] != "OK" || !strings.HasPrefix(lines[1], "EST ") || lines[2] != "BYE" {
			t.Fatalf("server misbehaving after fuzz connection: %q", lines)
		}
		c2.Close()
		<-h2
	})
}

// clientReadVerbs are the Client calls that read a reply off the wire,
// each run by FuzzClientReply against a peer answering with fuzzed
// bytes.
var clientReadVerbs = []struct {
	name string
	read func(c *Client[int64]) error
}{
	{"Query", func(c *Client[int64]) error { _, _, _, err := c.Query(7); return err }},
	{"TopK", func(c *Client[int64]) error { _, err := c.TopK(5); return err }},
	{"FrequentItemsAboveThreshold", func(c *Client[int64]) error {
		_, err := c.FrequentItemsAboveThreshold(10, freq.NoFalseNegatives)
		return err
	}},
	{"HeavyHitters", func(c *Client[int64]) error { _, err := c.HeavyHitters(0.01); return err }},
	{"Stats", func(c *Client[int64]) error { _, _, err := c.Stats(); return err }},
	{"StatsFull", func(c *Client[int64]) error { _, err := c.StatsFull(); return err }},
	{"Snapshot", func(c *Client[int64]) error { _, err := c.Snapshot(); return err }},
	{"Rotate", func(c *Client[int64]) error { _, err := c.Rotate(); return err }},
}

// FuzzClientReply answers every Client read verb with fuzzed reply
// bytes, in text framing, in BIN 2 framing with the bytes as one reply
// frame's payload, and in BIN 2 framing with the bytes written raw
// (frame headers included). The peer is a goroutine on loopback TCP,
// not net.Pipe, whose writes block until read: it answers HELLO BIN 2,
// reads one command, writes the reply and closes. Each verb must return
// an error or a parsed answer, never panic or hang (every read runs
// under WithIOTimeout), and allocate less than 1 MiB on a reply of at
// most 64 KiB: nothing may be sized from a count the peer only claims.
// Seeds: cmd/genfuzzcorpus writes testdata/fuzz/FuzzClientReply.
func FuzzClientReply(f *testing.F) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })
	f.Fuzz(func(t *testing.T, reply []byte) {
		reply = reply[:min(len(reply), 64<<10)]
		framed := make([]byte, frameHeader+len(reply))
		framed[0] = opReply
		binary.LittleEndian.PutUint32(framed[1:], uint32(len(reply)))
		copy(framed[frameHeader:], reply)
		for _, mode := range []struct {
			name  string
			bin   bool
			bytes []byte
		}{{"text", false, reply}, {"bin2", true, framed}, {"bin2-raw", true, reply}} {
			for _, verb := range clientReadVerbs {
				done := make(chan struct{})
				go func() {
					defer close(done)
					answerOnce(ln, mode.bin, mode.bytes)
				}()
				opts := []ClientOption{WithDialTimeout(5 * time.Second), WithIOTimeout(5 * time.Second)}
				if mode.bin {
					opts = append(opts, WithBinary())
				}
				c, err := Dial[int64](ln.Addr().String(), opts...)
				if err != nil {
					t.Fatalf("%s: dial: %v", mode.name, err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				verb.read(c)
				runtime.ReadMemStats(&after)
				c.Close()
				<-done
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
					t.Fatalf("%s %s: client allocated %d bytes on a %d-byte reply", mode.name, verb.name, grew, len(reply))
				}
			}
		}
	})
}

// answerOnce accepts one connection on ln, answers HELLO BIN 2 when bin,
// reads one command, text line or binary frame, writes reply as is and
// closes. Every step has a deadline, so a client that never dials or
// stops reading cannot stall it.
func answerOnce(ln net.Listener, bin bool, reply []byte) {
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	conn, err := ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	if bin {
		if line, err := r.ReadString('\n'); err != nil || line != "HELLO BIN 2\n" {
			return
		}
		if _, err := io.WriteString(conn, "HELLO BIN 2\n"); err != nil {
			return
		}
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		if _, err := io.CopyN(io.Discard, r, int64(binary.LittleEndian.Uint32(hdr[1:]))); err != nil {
			return
		}
	} else if _, err := r.ReadString('\n'); err != nil {
		return
	}
	conn.Write(reply)
}
