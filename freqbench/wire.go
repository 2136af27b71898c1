package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// The benchmark speaks freqd's wire protocol itself, from the reference
// in freq/server/doc.go, rather than through the repository's Go client:
// the client's API may be reshaped, but the bytes on the wire are pinned
// by the server's conformance suite, so a driver written against them
// measures every future version of the daemon the same way.
//
// Every connection negotiates binary framing v2 ("HELLO BIN 2"). After
// that each request is one frame [opcode u8][payload length u32 LE]
// [payload] and each reply is one opReply frame whose payload is exactly
// the text protocol's reply.
const (
	opPairs  = 0x01
	opCmd    = 0x02
	opReply  = 0x81
	pairSize = 16
	// opTimeout bounds every request: a reply later than this counts as
	// a failed operation and ends the connection.
	opTimeout = 5 * time.Second
)

// errServer marks an ERR reply: the request was received and refused,
// and the connection stays usable.
var errServer = errors.New("server replied ERR")

// conn is one benchmark connection to freqd.
// In open loop one goroutine writes while another reads, so the two
// directions keep separate scratch.
type conn struct {
	nc   net.Conn
	r    *bufio.Reader
	whdr []byte
	rhdr [5]byte
	buf  []byte
}

// dial opens a connection and negotiates binary framing v2.
func dial(addr string) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	c := &conn{nc: nc, r: bufio.NewReaderSize(nc, 256<<10)}
	if err := c.hello(); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (c *conn) hello() error {
	c.nc.SetDeadline(time.Now().Add(opTimeout))
	defer c.nc.SetDeadline(time.Time{})
	if _, err := c.nc.Write([]byte("HELLO BIN 2\n")); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	if line != "HELLO BIN 2\n" {
		return fmt.Errorf("hello: server answered %q", strings.TrimSpace(line))
	}
	return nil
}

func (c *conn) Close() error { return c.nc.Close() }

// writePairs sends one PAIRS frame scoped to tenant (empty = the global
// summary). pairs is the little-endian wire encoding of the batch, sent
// as is after the header.
func (c *conn) writePairs(tenant string, pairs []byte) error {
	n := 2 + len(tenant) + len(pairs)
	c.whdr = append(c.whdr[:0], opPairs)
	c.whdr = binary.LittleEndian.AppendUint32(c.whdr, uint32(n))
	c.whdr = binary.LittleEndian.AppendUint16(c.whdr, uint16(len(tenant)))
	c.whdr = append(c.whdr, tenant...)
	bufs := net.Buffers{c.whdr, pairs}
	c.nc.SetWriteDeadline(time.Now().Add(opTimeout))
	_, err := bufs.WriteTo(c.nc)
	return err
}

// writeCmd sends one text command in a CMD frame.
func (c *conn) writeCmd(cmd string) error {
	c.whdr = append(c.whdr[:0], opCmd)
	c.whdr = binary.LittleEndian.AppendUint32(c.whdr, uint32(len(cmd)))
	c.whdr = append(c.whdr, cmd...)
	bufs := net.Buffers{c.whdr}
	c.nc.SetWriteDeadline(time.Now().Add(opTimeout))
	_, err := bufs.WriteTo(c.nc)
	return err
}

// readReply reads the next reply frame, waiting until deadline at most.
// The payload is valid until the next call. An ERR reply is returned
// with errServer; any other error means the stream is unusable.
func (c *conn) readReply(deadline time.Time) ([]byte, error) {
	c.nc.SetReadDeadline(deadline)
	if _, err := io.ReadFull(c.r, c.rhdr[:]); err != nil {
		return nil, err
	}
	if c.rhdr[0] != opReply {
		return nil, fmt.Errorf("reply frame opcode 0x%02x, want 0x%02x", c.rhdr[0], opReply)
	}
	n := int(binary.LittleEndian.Uint32(c.rhdr[1:]))
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	p := c.buf[:n]
	if _, err := io.ReadFull(c.r, p); err != nil {
		return nil, err
	}
	if bytes.HasPrefix(p, []byte("ERR ")) {
		return p, fmt.Errorf("%w: %s", errServer, strings.TrimSpace(string(p[4:])))
	}
	return p, nil
}

// roundTrip sends one command and returns its reply.
func (c *conn) roundTrip(cmd string) ([]byte, error) {
	if err := c.writeCmd(cmd); err != nil {
		return nil, err
	}
	return c.readReply(time.Now().Add(opTimeout))
}

// parseOK parses a batch acknowledgement "OK <n>".
func parseOK(p []byte) (int, error) {
	s, ok := strings.CutPrefix(strings.TrimSuffix(string(p), "\n"), "OK ")
	if !ok {
		return 0, fmt.Errorf("want OK <n>, got %q", clip(p))
	}
	return strconv.Atoi(s)
}

// row is one ITEM line of a MULTI reply.
type row struct {
	item, est, lb, ub int64
}

// parseRows parses a MULTI block: "MULTI <k>" then k ITEM lines.
func parseRows(p []byte, dst []row) ([]row, error) {
	lines := strings.Split(strings.TrimSuffix(string(p), "\n"), "\n")
	head, ok := strings.CutPrefix(lines[0], "MULTI ")
	if !ok {
		return nil, fmt.Errorf("want MULTI block, got %q", clip(p))
	}
	k, err := strconv.Atoi(head)
	if err != nil || k != len(lines)-1 {
		return nil, fmt.Errorf("MULTI %q announces a different row count than the %d lines sent", head, len(lines)-1)
	}
	dst = dst[:0]
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		if len(f) != 5 || f[0] != "ITEM" {
			return nil, fmt.Errorf("bad ITEM line %q", l)
		}
		var v [4]int64
		for i := range v {
			if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
				return nil, fmt.Errorf("bad ITEM line %q", l)
			}
		}
		dst = append(dst, row{v[0], v[1], v[2], v[3]})
	}
	return dst, nil
}

// parseStats parses a STATS reply's key=value fields.
func parseStats(p []byte) (map[string]int64, error) {
	f := strings.Fields(string(p))
	if len(f) == 0 || f[0] != "STATS" {
		return nil, fmt.Errorf("want STATS, got %q", clip(p))
	}
	m := make(map[string]int64, len(f)-1)
	for _, kv := range f[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("STATS field %q: %v", kv, err)
		}
		m[k] = n
	}
	return m, nil
}

// parseEst parses "EST <estimate> <lower> <upper>".
func parseEst(p []byte) (est, lb, ub int64, err error) {
	f := strings.Fields(string(p))
	if len(f) != 4 || f[0] != "EST" {
		return 0, 0, 0, fmt.Errorf("want EST reply, got %q", clip(p))
	}
	var v [3]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return 0, 0, 0, fmt.Errorf("bad EST reply %q", clip(p))
		}
	}
	return v[0], v[1], v[2], nil
}

// parseSnap parses "SNAP <n>" followed by the n-byte sketch encoding.
func parseSnap(p []byte) ([]byte, error) {
	head, blob, ok := bytes.Cut(p, []byte("\n"))
	n, err := strconv.Atoi(strings.TrimPrefix(string(head), "SNAP "))
	if !ok || !bytes.HasPrefix(head, []byte("SNAP ")) || err != nil || n != len(blob) {
		return nil, fmt.Errorf("bad SNAP reply header %q with %d blob bytes", clip(head), len(blob))
	}
	return blob, nil
}

// clip shortens a reply for an error message.
func clip(p []byte) string {
	if len(p) > 80 {
		return string(p[:80]) + "..."
	}
	return string(p)
}
