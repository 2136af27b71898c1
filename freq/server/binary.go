package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unsafe"

	"repro/freq"
	"repro/freq/tenant"
)

// Binary framing — negotiated by "HELLO BIN <v>" on a text connection.
// Every frame is a 5-byte header followed by a payload:
//
//	[1 byte opcode][4 bytes payload length, little-endian][payload]
//
// Client→server opcodes carry ingest blocks (opPairs) and single text
// command lines (opCmd); every server reply is an opReply frame whose
// payload is exactly the bytes the text protocol would have written for
// the same command — so the two framings are byte-identical at the
// reply level, which is what the conformance suite asserts.
//
// Version 2 changes only the opPairs payload: it gains a tenant-id
// prefix — [2 bytes id length, little-endian][id bytes][pairs] — so a
// binary collector can stream scoped ingest without a per-batch CMD
// round trip. A zero-length id is the global summary, making the v2
// encoding a strict superset of v1 (v1 payload + 2 zero bytes in
// front). Clients offer BIN 2 and descend to BIN 1 on ERR, so old
// servers keep working unchanged.
const (
	// binaryVersionMin..binaryVersionMax is the framing version range
	// HELLO accepts; a min bump means the frame layout changed
	// incompatibly, a max bump adds a negotiated sub-encoding.
	binaryVersionMin = 1
	binaryVersionMax = 2
	// frameHeader is the fixed frame prefix: opcode + payload length.
	frameHeader = 5
	// opPairs is a block of pairSize-byte little-endian (item, weight)
	// updates — the zero-copy ingest hot path. Reply: "OK <count>".
	opPairs = 0x01
	// opCmd is one text command line (no trailing newline needed); the
	// reply is whatever the text protocol answers, framed whole. UB is
	// rejected here — its pair lines belong to the text framing; binary
	// ingest uses opPairs.
	opCmd = 0x02
	// opReply frames every server→client response.
	opReply = 0x81
	// pairSize is one (item, weight) update: two little-endian int64s.
	pairSize = 16
)

// MaxFrameBytes caps a frame payload, the binary analogue of
// MaxWireBatch: a pairs frame may carry at most MaxWireBatch updates.
// A header announcing more is a liar's number — the server replies ERR
// once and drops the connection, mirroring the text protocol's
// oversized-UB handling.
const MaxFrameBytes = MaxWireBatch * pairSize

// hostLittleEndian reports whether the host shares the wire's byte
// order, in which case a received pairs payload reinterprets in place
// as []freq.Pair[int64] with no decoding at all.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// binaryLoop serves the connection after a HELLO BIN upgrade. It owns
// the read stream from the first frame header onward; it returns when
// the connection is done (EOF, error, QUIT, or a frame violation that
// cannot be resynchronized). The pairs path is the ingest hot loop and
// must stay allocation-free; the ERR formatting below is waived because
// each site either drops the connection or answers a malformed frame —
// cold by definition.
//
//freq:noalloc
func (c *conn) binaryLoop() {
	for {
		// The frame header is the between-commands boundary: waiting for
		// it is "idle" for both the idle deadline and Shutdown's drain.
		c.armIdle()
		if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
			return
		}
		c.st.busy.Lock()
		quit, ok := c.binaryFrame()
		c.st.busy.Unlock()
		if !ok || quit {
			return
		}
		if c.srv.draining.Load() {
			// Graceful drain: this frame got its reply; exit instead of
			// reading the next one.
			return
		}
	}
}

// binaryFrame serves one frame whose header is already in c.hdr. It
// reports quit (a QUIT command) and ok (the connection can keep going:
// the stream is synchronized and the reply flushed). Runs under the
// connection's busy lock, so Shutdown never cuts a frame in half.
//
//freq:noalloc
func (c *conn) binaryFrame() (quit, ok bool) {
	c.armIO()
	op := c.hdr[0]
	n := binary.LittleEndian.Uint32(c.hdr[1:])
	// A v2 pairs frame may exceed the pairs cap by its id prefix and
	// still carry a maximal batch.
	limit := uint32(MaxFrameBytes)
	if op == opPairs && c.binVer >= 2 {
		limit += 2 + tenant.MaxIDLen
	}
	if n > limit {
		// The announced length exceeds the cap; per the UB precedent
		// this is unrecoverable by policy: reply once, drop.
		//freqvet:ignore noalloc cold protocol-violation path; the connection is dropped right after
		c.errFrame(fmt.Sprintf("frame length %d exceeds cap %d", n, limit))
		c.nw.Flush()
		return false, false
	}
	switch op {
	case opPairs:
		if !c.pairsFrame(n) {
			return false, false
		}
	case opCmd:
		payload := make([]byte, n)
		if _, err := io.ReadFull(c.r, payload); err != nil {
			return false, false
		}
		quit = c.execCmd(payload)
	default:
		if _, err := c.r.Discard(int(n)); err != nil {
			return false, false
		}
		//freqvet:ignore noalloc cold unknown-opcode path
		c.errFrame(fmt.Sprintf("unknown opcode 0x%02x", op))
	}
	if err := c.nw.Flush(); err != nil {
		return false, false
	}
	return quit, true
}

// pairsFrame serves one opPairs payload of n bytes: the pairs alone on
// BIN 1, [2B id length][id][pairs] on BIN 2. A v1 frame is a v2 frame
// with an implied empty id, which ingests into the global summary; a
// non-empty id acquires that tenant and applies the pairs as one
// all-or-nothing batch. Reports whether the connection can keep going;
// every malformed-but-bounded payload is consumed whole before the ERR
// reply, so the stream stays synchronized. This is the ingest hot path
// of both framings and stays allocation-free at steady state
// (registry-hit acquires and within-cap buffer reuse); the error
// formatting below is cold by definition.
//
//freq:noalloc
func (c *conn) pairsFrame(n uint32) (ok bool) {
	rest, idLen := int(n), 0
	if c.binVer >= 2 {
		if n < 2 {
			if _, err := c.r.Discard(rest); err != nil {
				return false
			}
			c.errFrame("v2 pairs frame shorter than its id-length header")
			return true
		}
		if _, err := io.ReadFull(c.r, c.hdr[:2]); err != nil {
			return false
		}
		idLen = int(binary.LittleEndian.Uint16(c.hdr[:2]))
		rest -= 2
		if idLen > tenant.MaxIDLen || idLen > rest || (rest-idLen)%pairSize != 0 {
			// Bounded garbage: consume the payload, answer, keep going.
			if _, err := c.r.Discard(rest); err != nil {
				return false
			}
			//freqvet:ignore noalloc cold malformed-frame path; the payload was discarded, not ingested
			c.errFrame(fmt.Sprintf("malformed v2 pairs frame: id length %d, payload %d", idLen, rest))
			return true
		}
		if cap(c.idBuf) < idLen {
			c.idBuf = make([]byte, idLen, tenant.MaxIDLen)
		}
		c.idBuf = c.idBuf[:idLen]
		if _, err := io.ReadFull(c.r, c.idBuf); err != nil {
			return false
		}
	} else if rest%pairSize != 0 {
		// The length is trustworthy (≤ cap) even though the payload is
		// malformed: discard it whole and keep the stream synchronized,
		// like the text UB drain.
		if _, err := c.r.Discard(rest); err != nil {
			return false
		}
		//freqvet:ignore noalloc cold malformed-frame path; the payload was discarded, not ingested
		c.errFrame(fmt.Sprintf("pairs frame length %d is not a multiple of %d", n, pairSize))
		return true
	}
	npairs := (rest - idLen) / pairSize
	pairs := c.framePayload(npairs)
	if npairs > 0 {
		buf := unsafe.Slice((*byte)(unsafe.Pointer(&pairs[0])), npairs*pairSize)
		if _, err := io.ReadFull(c.r, buf); err != nil {
			return false
		}
		if !hostLittleEndian {
			decodePairsInPlace(buf, pairs)
		}
	}
	if idLen == 0 {
		// Global scope. All-or-nothing: AddPairs validated before
		// buffering, so on an error the sketch is untouched and the
		// connection stays usable.
		if err := c.ingestPairs(pairs); err != nil {
			c.errFrame(err.Error())
			return true
		}
		c.okFrame(len(pairs))
		return true
	}
	s := c.srv
	if s.tenants == nil {
		c.errFrame(ErrNoTenants.Error())
		return true
	}
	ten, err := s.tenants.AcquireBytes(c.idBuf)
	if err != nil {
		c.errFrame(err.Error())
		return true
	}
	c.tenItems = c.tenItems[:0]
	c.tenWeights = c.tenWeights[:0]
	for i := range pairs {
		c.tenItems = append(c.tenItems, pairs[i].Item)
		c.tenWeights = append(c.tenWeights, pairs[i].Weight)
	}
	// All-or-nothing into both tenant summaries; a bad weight rejects
	// the whole frame with the registry untouched.
	err = ten.UpdateWeightedBatch(c.tenItems, c.tenWeights)
	ten.Release()
	if err != nil {
		c.errFrame(err.Error())
		return true
	}
	s.updates.Add(int64(len(pairs)))
	c.okFrame(len(pairs))
	return true
}

// framePayload returns the connection's reusable pairs buffer sized to
// npairs. Allocating it as pairs rather than bytes guarantees the
// 8-byte alignment the zero-copy reinterpretation needs.
//
//freq:noalloc
func (c *conn) framePayload(npairs int) []freq.Pair[int64] {
	if cap(c.pairBuf) < npairs {
		c.pairBuf = make([]freq.Pair[int64], npairs)
	}
	return c.pairBuf[:npairs]
}

// decodePairsInPlace converts a little-endian wire payload into native
// pairs on big-endian hosts; buf aliases pairs' memory, so each field
// is loaded as wire bytes before its native store clobbers it.
//
//freq:noalloc
func decodePairsInPlace(buf []byte, pairs []freq.Pair[int64]) {
	for i := range pairs {
		off := i * pairSize
		item := int64(binary.LittleEndian.Uint64(buf[off:]))
		weight := int64(binary.LittleEndian.Uint64(buf[off+8:]))
		pairs[i] = freq.Pair[int64]{Item: item, Weight: weight}
	}
}

// ingestPairs applies one decoded pairs frame: all-or-nothing into the
// per-shard writer buffers (one partition pass), mirrored into the
// windowed twin's batch buffer when one is configured.
//
//freq:noalloc
func (c *conn) ingestPairs(pairs []freq.Pair[int64]) error {
	if err := c.writer.AddPairs(pairs); err != nil {
		return err
	}
	s := c.srv
	if s.win != nil {
		for i := range pairs {
			if pairs[i].Weight != 0 {
				c.addWindowed(pairs[i].Item, pairs[i].Weight)
			}
		}
	}
	s.updates.Add(int64(len(pairs)))
	return nil
}

// okFrame writes the pairs-frame acknowledgement — "OK <n>", exactly
// the text UB reply — without fmt, keeping the ingest loop alloc-free.
//
//freq:noalloc
func (c *conn) okFrame(n int) {
	c.okBuf = append(c.okBuf[:0], 'O', 'K', ' ')
	c.okBuf = strconv.AppendInt(c.okBuf, int64(n), 10)
	c.okBuf = append(c.okBuf, '\n')
	c.writeFrame(opReply, c.okBuf)
}

// errFrame writes a sanitized one-line ERR reply frame.
//
//freq:sanitizer
func (c *conn) errFrame(msg string) {
	c.replyBuf.Reset()
	c.replyBuf.WriteString("ERR ")
	c.replyBuf.WriteString(sanitizeLine(msg))
	c.replyBuf.WriteByte('\n')
	c.writeFrame(opReply, c.replyBuf.Bytes())
}

// writeFrame emits one frame into the connection's buffered writer; the
// caller flushes.
//
//freq:noalloc
func (c *conn) writeFrame(op byte, payload []byte) {
	c.hdr[0] = op
	binary.LittleEndian.PutUint32(c.hdr[1:], uint32(len(payload)))
	c.nw.Write(c.hdr[:])
	c.nw.Write(payload)
}

// execCmd runs one framed text command line through the ordinary
// dispatcher, capturing its reply so it can be framed whole. The reply
// payload is byte-for-byte what the text framing would have written.
func (c *conn) execCmd(payload []byte) (quit bool) {
	line := strings.TrimSpace(string(payload))
	c.replyBuf.Reset()
	if c.bw == nil {
		c.bw = bufio.NewWriter(&c.replyBuf)
	} else {
		c.bw.Reset(&c.replyBuf)
	}
	c.w = c.bw
	var err error
	switch {
	case line == "":
		err = errors.New("empty command frame")
	case strings.ContainsRune(line, '\n'):
		err = errors.New("command frame must be a single line")
	case strings.EqualFold(strings.Fields(line)[0], "UB"):
		// UB's pair lines belong to the text framing; over binary the
		// pairs opcode is the batch path.
		err = errors.New("UB is text-framing only; send a pairs frame (opcode 0x01)")
	default:
		quit, err = c.dispatch(line)
	}
	if err != nil {
		fmt.Fprintf(c.bw, "ERR %s\n", sanitizeLine(err.Error()))
	}
	c.bw.Flush()
	c.w = c.nw
	c.writeFrame(opReply, c.replyBuf.Bytes())
	return quit
}
