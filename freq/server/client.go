package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"iter"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/freq"
	"repro/freq/tenant"
	"repro/internal/hashmap"
)

// Client speaks the line protocol to a Server. It is generic over the
// item type: the wire carries decimal int64, and any 8-byte integer kind
// (~int64 | ~uint64 — the freq fast path's domain) converts to and from
// it losslessly, so a collector keyed by uint64 flow hashes and one
// keyed by signed ids share one client. It is a thin synchronous
// wrapper suitable for collectors and tests; it is not safe for
// concurrent use (open one per goroutine — the server side is
// concurrent).
//
// # Scopes
//
// A Client is a handle on one scope of the server's summaries. Dial
// returns the global all-time scope; Tenant, Window and Range derive
// handles scoped to one tenant, to the merged view of the last w window
// intervals, or to the stored history over [from, to), and compose:
//
//	alice, _ := c.Tenant("alice")
//	rows, err := alice.Window(5).TopK(10) // TENANT alice WIN 5 TOPK 10
//
// Every handle has the same verb methods, each sending its command
// behind the handle's scope prefix, and the server decides what a scope
// supports: HH, Stats, Rotate, Reset and Evict are all-time verbs
// (Evict on a tenant handle), and a handle outside their scope gets the
// server's ERR. Update and UpdateBatch on a Window or Range handle fail
// locally instead: windows and stored history are fed by the all-time
// ingest, never written directly. Deriving a handle costs no network
// round trip, so a collector multiplexing many tenants holds one handle
// per tenant over a single connection. Handles share their parent's
// connection, framing, fault-tolerance policy and Close, so handles of
// one Client must not be used concurrently with each other (they
// interleave on one reply stream).
//
// Client implements freq.Queryable[T], so the freq.Query builder runs
// against a remote summary exactly as against a local sketch. The
// interface-shaped methods (Estimate, bounds, MaximumError,
// StreamWeight, All) cannot return transport errors in-band; the first
// failure is recorded and exposed via Err, and subsequent calls return
// zero values. Callers that need per-call errors use the explicit
// methods (Query, TopK, FrequentItemsAboveThreshold, Stats, ...).
//
// # Fault tolerance
//
// A dialed client survives a flaky network when configured to:
// WithDialTimeout and WithIOTimeout bound every connect, read, and
// write with deadlines; WithRetry makes the idempotent read commands
// (EST, TOPK, FI, HH, STATS, SNAP — in every scope) retry transport
// failures with jittered exponential backoff, transparently re-dialing
// and re-negotiating the binary framing. The non-idempotent ingest
// commands (Update, UpdateBatch) are NEVER auto-retried — a lost
// acknowledgement is indistinguishable from a lost request, so
// re-sending could double count; they return a *TransportError and let
// the caller decide. After any transport failure the connection is
// marked broken and the next operation re-dials first (when the client
// knows its address), so a recovered server is picked back up without
// new client state.
type Client[T ~int64 | ~uint64] struct {
	*clientConn
	// tenant is the handle's tenant id ("" = global) and span its
	// window or range scope ("" = all-time, else "WIN <w> " or
	// "RANGE <from> <to> "). scope is the prefix every command carries —
	// sent as its own argument, never inside a format string, so no
	// tenant id can be misread as formatting directives — and label the
	// same scope without arguments, for TransportError op names.
	tenant, span string
	scope, label string
	// err is the first error this handle's freq.Queryable methods hit.
	err error
}

// clientConn is the connection state every handle of one Client
// shares: the stream, its framing, and the fault-tolerance policy.
type clientConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	// bin is set by a successful Negotiate: requests travel as opCmd and
	// opPairs frames and replies arrive as opReply frames whose payload
	// is byte-for-byte the text protocol's reply. binVer is the
	// negotiated version (2 adds the tenant-id prefix to pairs frames).
	bin    bool
	binVer int
	// wantBin records that the caller asked for binary framing, so a
	// reconnect re-negotiates it.
	wantBin bool
	// frame is the unconsumed tail of the current reply frame's payload;
	// readLine and readBlobInto drain it before fetching the next frame.
	frame []byte
	// cmdBuf is the reusable request encoding buffer (command lines and
	// pairs payloads alike).
	cmdBuf []byte

	// addr is the dial target ("" for NewClient over an existing conn —
	// such a client cannot reconnect).
	addr string
	// redial opens a replacement connection; defaults to a TCP dial of
	// addr bounded by dialTimeout. Overridable for tests (fault
	// injection wraps the raw conn here).
	redial func() (net.Conn, error)
	// dialTimeout bounds the initial and every replacement dial.
	dialTimeout time.Duration
	// ioTimeout, when positive, arms a read or write deadline around
	// every conn operation, so no round trip can block forever on a
	// stalled peer.
	ioTimeout time.Duration
	// retries and backoff configure WithRetry: up to retries additional
	// attempts after the first failure, sleeping a jittered exponential
	// backoff between them.
	retries int
	backoff time.Duration
	// broken marks the connection poisoned by a transport failure (the
	// reply stream may be desynchronized); the next operation must
	// reconnect before using it.
	broken bool
	// aborted is set by an external deadline owner (Cluster's per-node
	// timeout): while set, deadline arming is suppressed so the abort
	// deadline cannot be extended by the operation in flight.
	aborted atomic.Bool
	// retryCount counts retry round trips performed (diagnostics; the
	// fault-injection suite asserts on it).
	retryCount int64
	// lastSnapBytes is the wire size of the most recent snapshot blob
	// (diagnostics; the Cluster manifest reports it).
	lastSnapBytes int
}

// ClientOption configures Dial.
type ClientOption func(*clientConfig)

type clientConfig struct {
	binary      bool
	dialTimeout time.Duration
	ioTimeout   time.Duration
	retries     int
	backoff     time.Duration
	dialer      func() (net.Conn, error)
}

// WithBinary makes Dial negotiate the binary framing after connecting.
// Negotiation is best-effort: a server that answers HELLO with ERR (an
// older build, or a newer framing version) leaves the client in text
// mode and Dial still succeeds — Binary reports which framing won.
func WithBinary() ClientOption {
	return func(c *clientConfig) { c.binary = true }
}

// WithDialTimeout bounds the initial connect and every reconnect; zero
// (the default) dials without a bound.
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.dialTimeout = d }
}

// WithIOTimeout arms a deadline around every read and write on the
// connection — text and binary framing alike — so a stalled peer fails
// the operation with a timeout instead of pinning the caller forever.
// Zero (the default) leaves operations unbounded.
func WithIOTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.ioTimeout = d }
}

// WithRetry makes idempotent read commands retry transport failures up
// to n additional times, sleeping a jittered exponential backoff
// starting at base between attempts (base doubles per attempt, capped
// at 64x, jittered ±50%). Each retry re-dials the server and
// re-negotiates the framing. Non-idempotent ingest never retries
// regardless of this option.
func WithRetry(n int, base time.Duration) ClientOption {
	return func(c *clientConfig) { c.retries, c.backoff = n, base }
}

// WithDialer replaces the TCP dialer used for the initial connection
// and every reconnect — the hook the fault-injection suite uses to wrap
// connections in chaos. The addr argument of Dial is then only a label.
func WithDialer(dial func() (net.Conn, error)) ClientOption {
	return func(c *clientConfig) { c.dialer = dial }
}

// Queryable compile-time proof, mirroring the assertions in freq.
var _ freq.Queryable[int64] = (*Client[int64])(nil)

// Dial connects to a server at addr.
func Dial[T ~int64 | ~uint64](addr string, opts ...ClientOption) (*Client[T], error) {
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	dial := cfg.dialer
	if dial == nil {
		dial = func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, cfg.dialTimeout)
		}
	}
	conn, err := dial()
	if err != nil {
		return nil, &TransportError{Op: "DIAL", Attempts: 1, Err: err}
	}
	c := NewClient[T](conn)
	c.addr = addr
	c.redial = dial
	c.dialTimeout = cfg.dialTimeout
	c.ioTimeout = cfg.ioTimeout
	c.retries = cfg.retries
	c.backoff = cfg.backoff
	if cfg.binary {
		c.wantBin = true
		if _, err := c.Negotiate(); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return c, nil
}

// NewClient wraps an existing connection (e.g. net.Pipe in tests). The
// client starts in text framing; call Negotiate to attempt the binary
// upgrade.
func NewClient[T ~int64 | ~uint64](conn net.Conn) *Client[T] {
	return &Client[T]{clientConn: &clientConn{
		conn: conn,
		r:    bufio.NewReader(conn),
		w:    bufio.NewWriter(conn),
	}}
}

// Tenant returns a handle scoped to tenant id, keeping this handle's
// window or range scope. The id is validated locally (1..128 printable
// non-space ASCII bytes — the same rule the server's manager enforces);
// no network traffic happens and no tenant is created server-side until
// the first command touches it.
func (c *Client[T]) Tenant(id string) (*Client[T], error) {
	if !tenant.ValidID(id) {
		return nil, fmt.Errorf("client: %w: %q", tenant.ErrBadID, id)
	}
	return c.with(id, c.span), nil
}

// Window returns a handle scoped to the merged view of the last w
// intervals of this handle's sliding window (the global window, or a
// tenant's twin) — the WIN command. It replaces any window or range
// scope the handle had. Its reads error when the server runs without a
// window; its snapshot is an ordinary sketch, so it merges and queries
// like any other (Cluster.RefreshWindow fans it out).
func (c *Client[T]) Window(w int) *Client[T] {
	return c.with(c.tenant, fmt.Sprintf("WIN %d ", w))
}

// Range returns a handle scoped to the merged summary of every window
// slot the server's durable store persisted over [from, to) — the RANGE
// command, bounds travelling as unix seconds. A tenant handle's range
// includes history persisted by idle eviction, so an evicted tenant's
// past stays queryable. It replaces any window or range scope the
// handle had, and its reads error when the server runs without a store.
func (c *Client[T]) Range(from, to time.Time) *Client[T] {
	return c.with(c.tenant, fmt.Sprintf("RANGE %d %d ", from.Unix(), to.Unix()))
}

// with returns a handle on c's connection scoped to tenant id and span.
func (c *Client[T]) with(id, span string) *Client[T] {
	h := &Client[T]{clientConn: c.clientConn, tenant: id, span: span, scope: span}
	if id != "" {
		h.scope, h.label = "TENANT "+id+" "+span, "TENANT "
	}
	if verb, _, ok := strings.Cut(span, " "); ok {
		h.label += verb + " "
	}
	return h
}

// writable rejects updates through a Window or Range handle: both views
// are fed by the all-time ingest. Failing locally also keeps a UB
// block's pair lines off the wire behind a scope the server would
// reject, which would desynchronize the stream.
func (c *Client[T]) writable() error {
	if c.span != "" {
		return fmt.Errorf("client: updates need an all-time scope, not %q", strings.TrimSpace(c.span))
	}
	return nil
}

// armRead arms the read deadline for one conn operation when an IO
// timeout is configured. Suppressed while an external abort deadline is
// in force (see abort).
func (c *clientConn) armRead() {
	if c.ioTimeout > 0 && !c.aborted.Load() {
		c.conn.SetReadDeadline(time.Now().Add(c.ioTimeout))
	}
}

// armWrite arms the write deadline for one conn operation.
func (c *clientConn) armWrite() {
	if c.ioTimeout > 0 && !c.aborted.Load() {
		c.conn.SetWriteDeadline(time.Now().Add(c.ioTimeout))
	}
}

// abort expires the connection immediately and keeps it expired: every
// blocked or future conn operation fails with a timeout until
// clearAbort. Safe to call from another goroutine (the Cluster's
// per-node refresh timeout is an AfterFunc); conn deadlines are
// documented as concurrency-safe.
func (c *clientConn) abort() {
	c.aborted.Store(true)
	c.conn.SetDeadline(time.Now())
}

// clearAbort lifts an abort. The connection stays marked broken by the
// failed operation itself, so the next use reconnects rather than
// trusting a desynchronized stream.
func (c *clientConn) clearAbort() {
	if c.aborted.Swap(false) {
		c.conn.SetDeadline(time.Time{})
	}
}

// Retries returns how many retry round trips this client has performed
// (diagnostics; reconnects that precede a first attempt don't count).
func (c *clientConn) Retries() int64 { return c.retryCount }

// Addr returns the dial target, or the remote address for a client
// wrapped around an existing connection.
func (c *clientConn) Addr() string {
	if c.addr != "" {
		return c.addr
	}
	if ra := c.conn.RemoteAddr(); ra != nil {
		return ra.String()
	}
	return ""
}

// reconnect replaces a broken connection with a freshly dialed one and
// re-negotiates the framing the caller originally asked for. It returns
// a *TransportError when the client has no redial target (NewClient
// over a raw conn) or the dial fails.
func (c *clientConn) reconnect() error {
	if c.redial == nil {
		return &TransportError{Op: "DIAL", Attempts: 1,
			Err: errors.New("connection broken and no redial target (wrap with Dial to enable reconnects)")}
	}
	conn, err := c.redial()
	if err != nil {
		return &TransportError{Op: "DIAL", Attempts: 1, Err: err}
	}
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn = conn
	c.r.Reset(conn)
	c.w.Reset(conn)
	c.bin = false
	c.frame = nil
	c.broken = false
	c.aborted.Store(false)
	if c.wantBin {
		if _, err := c.Negotiate(); err != nil {
			c.broken = true
			return err
		}
	}
	return nil
}

// do runs one whole operation (request plus full reply) with the
// client's fault-tolerance policy: reconnect first if the connection is
// known broken, classify failures, and — for idempotent operations with
// retry configured — re-dial and re-run with jittered exponential
// backoff. Protocol errors (the server answered ERR, or sent a
// snapshot blob of the announced length that does not decode) leave
// the stream intact and are returned as-is, never retried. Transport
// failures, which include a reply that does not parse (see badReply),
// poison the connection and surface as *TransportError.
func (c *clientConn) do(op string, idempotent bool, fn func() error) error {
	attempts := 0
	for {
		attempts++
		var err error
		if c.broken {
			err = c.reconnect()
		}
		if err == nil {
			err = fn()
			if err == nil {
				return nil
			}
			if !isTransport(err) {
				return err // protocol-level: the stream is intact
			}
			// The reply stream can no longer be trusted; any buffered
			// bytes may belong to the failed exchange.
			c.broken = true
		}
		te := transportErr(err)
		if !idempotent || attempts > c.retries || c.redial == nil {
			te.Op, te.Attempts = op, attempts
			return te
		}
		c.retryCount++
		if d := jitteredBackoff(c.backoff, attempts); d > 0 {
			time.Sleep(d)
		}
	}
}

// Negotiate sends HELLO BIN and upgrades the connection to the binary
// framing if the server agrees. It offers the newest framing version
// first and descends on each ERR decline — a current server answers
// BIN 2 immediately, a BIN-1-only build declines once and accepts BIN 1,
// and an older server that has never heard of HELLO declines every
// version, leaving the client in text mode: each HELLO is a single line
// and each ERR a single line, so the stream stays synchronized
// throughout. It returns (true, nil) on upgrade and (false, nil) when
// every version was declined. Only transport failures return an error.
// Negotiate is a no-op on an already-binary connection.
func (c *clientConn) Negotiate() (bool, error) {
	if c.bin {
		return true, nil
	}
	for ver := binaryVersionMax; ver >= binaryVersionMin; ver-- {
		c.armWrite()
		if _, err := fmt.Fprintf(c.w, "HELLO BIN %d\n", ver); err != nil {
			return false, transportErr(err)
		}
		if err := c.w.Flush(); err != nil {
			return false, transportErr(err)
		}
		c.armRead()
		line, err := c.r.ReadString('\n')
		if err != nil {
			return false, transportErr(err)
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "ERR ") {
			continue
		}
		if line != fmt.Sprintf("HELLO BIN %d", ver) {
			return false, badReply("unexpected HELLO response %q", line)
		}
		c.bin = true
		c.binVer = ver
		return true, nil
	}
	return false, nil
}

// Binary reports whether the connection negotiated the binary framing.
func (c *clientConn) Binary() bool { return c.bin }

// BinaryVersion returns the negotiated binary framing version, 0 while
// in text framing.
func (c *clientConn) BinaryVersion() int {
	if !c.bin {
		return 0
	}
	return c.binVer
}

// writeFrame ships one framed request and flushes it.
func (c *clientConn) writeFrame(op byte, payload []byte) error {
	c.armWrite()
	var hdr [frameHeader]byte
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return transportErr(err)
	}
	if _, err := c.w.Write(payload); err != nil {
		return transportErr(err)
	}
	return transportErrOrNil(c.w.Flush())
}

// transportErrOrNil wraps err as a transport error, passing nil through
// (a non-nil *TransportError inside a nil-checked error interface would
// not compare equal to nil).
func transportErrOrNil(err error) error {
	if err == nil {
		return nil
	}
	return transportErr(err)
}

// readFrame fetches the next reply frame's payload into c.frame.
func (c *clientConn) readFrame() error {
	c.armRead()
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return transportErr(err)
	}
	if hdr[0] != opReply {
		// Framing violations desynchronize the stream: transport-class.
		return transportErr(fmt.Errorf("client: unexpected frame opcode 0x%02x", hdr[0]))
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFrameBytes {
		return transportErr(fmt.Errorf("client: reply frame length %d exceeds cap %d", n, MaxFrameBytes))
	}
	buf, err := readGrowing(int(n), func(b []byte) error {
		_, err := io.ReadFull(c.r, b)
		return transportErrOrNil(err)
	})
	c.frame = buf
	return err
}

// readLine returns the next reply line including its trailing newline —
// straight off the stream in text framing, sliced out of the current
// reply frame in binary framing.
func (c *clientConn) readLine() (string, error) {
	if !c.bin {
		c.armRead()
		line, err := c.r.ReadString('\n')
		return line, transportErrOrNil(err)
	}
	if len(c.frame) == 0 {
		if err := c.readFrame(); err != nil {
			return "", err
		}
	}
	if i := bytes.IndexByte(c.frame, '\n'); i >= 0 {
		line := string(c.frame[:i+1])
		c.frame = c.frame[i+1:]
		return line, nil
	}
	line := string(c.frame)
	c.frame = nil
	return line, nil
}

// Caps on the counts a peer's MULTI and SNAP reply headers announce. No
// summary holds more counters than the largest table's load-factor
// capacity, plus the one a full table holds until it decrements, and a
// snapshot encodes each counter in 16 bytes after a 40-byte header. A
// count past these caps can only come from a broken peer.
const (
	maxReplyRows = int(hashmap.LoadFactor*(1<<hashmap.MaxLgLength)) + 1
	maxSnapBytes = 40 + 16*maxReplyRows
)

// replyCount parses the count in a "MULTI <n>" or "SNAP <n>" reply
// header. A header that does not parse, or a count outside [0, limit],
// leaves the rest of the reply unreadable, so it is a transport error.
func replyCount(header, verb string, limit int) (int, error) {
	var n int
	if _, err := fmt.Sscanf(header, verb+" %d", &n); err != nil {
		return 0, badReply("bad %s header %q", strings.ToLower(verb), header)
	}
	if n < 0 || n > limit {
		return 0, badReply("%s count %d outside [0, %d]", verb, n, limit)
	}
	return n, nil
}

// badReply reports a reply that is not ERR and does not parse. The rest
// of that reply may still be on the stream, where it would be read as
// the next command's answer, so it is a transport error: the connection
// is marked broken and the next command redials.
func badReply(format string, args ...any) error {
	return transportErr(fmt.Errorf("client: "+format, args...))
}

// readGrowing reads the n bytes a peer announced — a reply frame's
// payload or a SNAP reply's blob — through fill. n is the peer's claim,
// so the buffer grows as bytes arrive, doubling from 64 KiB, instead of
// being sized from n up front: a peer that stops short makes the client
// allocate at most about twice what it sent.
func readGrowing(n int, fill func([]byte) error) ([]byte, error) {
	var blob []byte
	for have := 0; have < n; have = len(blob) {
		blob = slices.Grow(blob, min(n-have, max(have, 64<<10)))
		blob = blob[:min(n, cap(blob))]
		if err := fill(blob[have:]); err != nil {
			return nil, err
		}
	}
	return blob, nil
}

// readBlobInto fills blob with reply payload bytes — the body of a SNAP
// response, which in binary framing rides in the same frame as its
// header line.
func (c *clientConn) readBlobInto(blob []byte) error {
	if !c.bin {
		// Arm per chunk, not per blob: a large snapshot may legitimately
		// take many read deadlines' worth of wall clock as long as bytes
		// keep flowing.
		for len(blob) > 0 {
			c.armRead()
			n, err := c.r.Read(blob)
			blob = blob[n:]
			if err != nil {
				if err == io.EOF && len(blob) == 0 {
					return nil
				}
				return transportErr(err)
			}
		}
		return nil
	}
	for len(blob) > 0 {
		if len(c.frame) == 0 {
			if err := c.readFrame(); err != nil {
				return err
			}
		}
		n := copy(blob, c.frame)
		c.frame = c.frame[n:]
		blob = blob[n:]
	}
	return nil
}

// closeGraceTimeout bounds Close's wait for the server's BYE: a dead or
// stalled peer must not hang Close forever.
const closeGraceTimeout = time.Second

// Close sends QUIT, waits for the server's BYE — which the server only
// sends after flushing this connection's buffered updates into the
// shared summary — and closes the connection. The BYE wait is bounded
// (by the IO timeout when configured, else one second): against a dead
// peer Close gives up the handshake and just closes.
func (c *clientConn) Close() error {
	if c.conn == nil {
		return nil
	}
	if !c.broken {
		grace := c.ioTimeout
		if grace <= 0 || grace > closeGraceTimeout {
			grace = closeGraceTimeout
		}
		c.conn.SetDeadline(time.Now().Add(grace))
		if c.bin {
			if err := c.writeFrame(opCmd, []byte("QUIT")); err == nil {
				_, _ = c.readLine()
			}
		} else {
			fmt.Fprintln(c.w, "QUIT")
			if err := c.w.Flush(); err == nil {
				_, _ = c.r.ReadString('\n')
			}
		}
	}
	return c.conn.Close()
}

// roundTrip sends one command — scope, then the formatted verb — and
// returns the first reply line.
func (c *clientConn) roundTrip(scope, format string, args ...any) (string, error) {
	if c.bin {
		c.cmdBuf = append(c.cmdBuf[:0], scope...)
		c.cmdBuf = fmt.Appendf(c.cmdBuf, format, args...)
		if err := c.writeFrame(opCmd, c.cmdBuf); err != nil {
			return "", err
		}
	} else {
		c.armWrite()
		if _, err := c.w.WriteString(scope); err != nil {
			return "", transportErr(err)
		}
		if _, err := fmt.Fprintf(c.w, format+"\n", args...); err != nil {
			return "", transportErr(err)
		}
		if err := c.w.Flush(); err != nil {
			return "", transportErr(err)
		}
	}
	return c.reply()
}

// reply reads the next reply line, an ERR reply turned into an error.
func (c *clientConn) reply() (string, error) {
	line, err := c.readLine()
	if err != nil {
		return "", err
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "ERR ") {
		return "", fmt.Errorf("server: %s", line[4:])
	}
	return line, nil
}

// readAck reads a block's acknowledgement, which must be "OK <n>".
func (c *clientConn) readAck(n int) error {
	line, err := c.reply()
	if err != nil {
		return err
	}
	var got int
	if _, err := fmt.Sscanf(line, "OK %d", &got); err != nil || got != n {
		return badReply("unexpected batch response %q", line)
	}
	return nil
}

// exec runs one command in the handle's scope whose success reply is
// exactly "OK". Never auto-retried: every such command mutates.
func (c *Client[T]) exec(op, format string, args ...any) error {
	return c.do(c.label+op, false, func() error {
		resp, err := c.roundTrip(c.scope, format, args...)
		if err != nil {
			return err
		}
		if resp != "OK" {
			return badReply("unexpected response %q", resp)
		}
		return nil
	})
}

// Update sends a weighted update in the handle's scope. Not idempotent:
// a transport failure returns a *TransportError and is never
// auto-retried — the caller decides whether re-sending risks double
// counting. A Window or Range handle rejects it without sending.
func (c *Client[T]) Update(item T, weight int64) error {
	if err := c.writable(); err != nil {
		return err
	}
	return c.exec("U", "U %d %d", int64(item), weight)
}

// UpdateBatch sends a batch of weighted updates in the handle's scope —
// one buffered write and one round trip per block instead of per
// update — and waits for the server's acknowledgement. Batches longer
// than the server's MaxWireBatch cap are chunked transparently. Each
// block is all-or-nothing on the server: mismatched lengths here or a
// negative weight there reject it with no updates from that block
// applied. A Window or Range handle rejects it without sending.
func (c *Client[T]) UpdateBatch(items []T, weights []int64) error {
	if err := c.writable(); err != nil {
		return err
	}
	if len(items) != len(weights) {
		return fmt.Errorf("client: batch length mismatch: %d items, %d weights", len(items), len(weights))
	}
	for lo := 0; lo < len(items); lo += MaxWireBatch {
		hi := min(lo+MaxWireBatch, len(items))
		if err := c.updateBlock(items[lo:hi], weights[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// updateBlock ships one block of at most MaxWireBatch pairs — a UB
// block in text framing, one opPairs frame in binary framing. A
// tenant-scoped block on a BIN 1 connection has no batch encoding (v1
// pairs frames carry no id, and UB's pair lines belong to the text
// framing), so it degrades to per-update TENANT U command frames. Not
// idempotent: transport failures surface as *TransportError, never
// auto-retried (each block is all-or-nothing on the server, but a lost
// acknowledgement leaves applied-or-not unknowable here).
func (c *Client[T]) updateBlock(items []T, weights []int64) error {
	if len(items) == 0 {
		return nil
	}
	return c.do(c.label+"UB", false, func() error {
		switch {
		case c.bin && (c.tenant == "" || c.binVer >= 2):
			return c.updateBlockBinary(items, weights)
		case c.bin:
			// BIN 1 with a tenant scope: per-update command frames.
			for i := range items {
				resp, err := c.roundTrip(c.scope, "U %d %d", int64(items[i]), weights[i])
				if err != nil {
					return err
				}
				if resp != "OK" {
					return badReply("unexpected response %q", resp)
				}
			}
			return nil
		default:
			return c.updateBlockText(items, weights)
		}
	})
}

// updateBlockText ships one UB block over the text framing, behind the
// handle's TENANT scope when it has one.
func (c *Client[T]) updateBlockText(items []T, weights []int64) error {
	c.armWrite()
	if _, err := fmt.Fprintf(c.w, "%sUB %d\n", c.scope, len(items)); err != nil {
		return transportErr(err)
	}
	buf := make([]byte, 0, 48)
	for i := range items {
		buf = strconv.AppendInt(buf[:0], int64(items[i]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, weights[i], 10)
		buf = append(buf, '\n')
		if _, err := c.w.Write(buf); err != nil {
			return transportErr(err)
		}
	}
	if err := c.w.Flush(); err != nil {
		return transportErr(err)
	}
	return c.readAck(len(items))
}

// updateBlockBinary encodes one pairs frame — pairSize bytes per
// update, little-endian item then weight, preceded on a BIN 2
// connection by the tenant-id prefix (length 0 = global) — and waits
// for the same "OK <n>" the text block gets. The encoding buffer is
// reused, so a steady stream of equal-size blocks allocates nothing.
func (c *Client[T]) updateBlockBinary(items []T, weights []int64) error {
	prefix := 0
	if c.binVer >= 2 {
		prefix = 2 + len(c.tenant)
	}
	need := prefix + len(items)*pairSize
	if cap(c.cmdBuf) < need {
		c.cmdBuf = make([]byte, need)
	}
	buf := c.cmdBuf[:need]
	if c.binVer >= 2 {
		binary.LittleEndian.PutUint16(buf, uint16(len(c.tenant)))
		copy(buf[2:], c.tenant)
	}
	pairs := buf[prefix:]
	for i := range items {
		binary.LittleEndian.PutUint64(pairs[i*pairSize:], uint64(int64(items[i])))
		binary.LittleEndian.PutUint64(pairs[i*pairSize+8:], uint64(weights[i]))
	}
	if err := c.writeFrame(opPairs, buf); err != nil {
		return err
	}
	return c.readAck(len(items))
}

// Query returns (estimate, lowerBound, upperBound) for item in one
// round trip: an all-time handle answers from the live per-shard bands,
// a Window or Range handle from its merged view. Idempotent: retried
// under WithRetry.
func (c *Client[T]) Query(item T) (est, lb, ub int64, err error) {
	err = c.do(c.label+"EST", true, func() error {
		resp, rerr := c.roundTrip(c.scope, "EST %d", int64(item))
		if rerr != nil {
			return rerr
		}
		if _, serr := fmt.Sscanf(resp, "EST %d %d %d", &est, &lb, &ub); serr != nil {
			return badReply("bad response %q", resp)
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return est, lb, ub, nil
}

// readMulti parses a MULTI block into rows.
func (c *Client[T]) readMulti(header string) ([]freq.Row[T], error) {
	n, err := replyCount(header, "MULTI", maxReplyRows)
	if err != nil {
		return nil, err
	}
	var rows []freq.Row[T]
	for i := 0; i < n; i++ {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		var item int64
		var r freq.Row[T]
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "ITEM %d %d %d %d",
			&item, &r.Estimate, &r.LowerBound, &r.UpperBound); err != nil {
			return nil, badReply("bad row %q", line)
		}
		r.Item = T(item)
		rows = append(rows, r)
	}
	return rows, nil
}

// TopK returns the n largest items (server-side TOPK command): the
// first n rows of the scope's merged view, which an all-time or window
// scope usually ranks from its shards' or slots' largest counters
// without building the view. Idempotent: retried under WithRetry.
func (c *Client[T]) TopK(n int) ([]freq.Row[T], error) {
	return c.doMulti("TOPK", "TOPK %d", n)
}

// FrequentItemsAboveThreshold returns items qualifying against an
// absolute threshold under et (server-side FI command). Idempotent:
// retried under WithRetry.
func (c *Client[T]) FrequentItemsAboveThreshold(threshold int64, et freq.ErrorType) ([]freq.Row[T], error) {
	return c.doMulti("FI", "FI %d %d", int(et), threshold)
}

// HeavyHitters returns items above phi (in [0,1]) of the scope's
// all-time stream weight. Idempotent: retried under WithRetry.
func (c *Client[T]) HeavyHitters(phi float64) ([]freq.Row[T], error) {
	return c.doMulti("HH", "HH %d", int(phi*1000))
}

// doMulti runs one idempotent MULTI-replying command in the handle's
// scope under the retry policy.
func (c *Client[T]) doMulti(op, format string, args ...any) ([]freq.Row[T], error) {
	var rows []freq.Row[T]
	err := c.do(c.label+op, true, func() error {
		resp, err := c.roundTrip(c.scope, format, args...)
		if err != nil {
			return err
		}
		rows, err = c.readMulti(resp)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Stats returns the scope's stream weight and error band (all-time
// scopes only). Idempotent: retried under WithRetry.
func (c *Client[T]) Stats() (n, maxErr int64, err error) {
	st, err := c.StatsFull()
	return st.N, st.MaxErr, err
}

// ServerStats is the fully parsed STATS reply. Fields absent from the
// reply (an older server, one running without a window, store, or
// tenant manager, or a tenant handle's reply) are zero.
type ServerStats struct {
	// N is the scope's stream weight; MaxErr its error band.
	N, MaxErr int64
	// Shards is the scope's shard count.
	Shards int
	// WindowSlots is the sliding window's interval count (0 without a
	// window).
	WindowSlots int
	// StorePartitions is the durable store's live partition count (0
	// without a store).
	StorePartitions int
	// Tenants is the live tenant count and TenantsMax the registry
	// capacity (both 0 without a tenant manager).
	Tenants, TenantsMax int
	// TenantEvictions counts tenants evicted (idle-TTL, capacity
	// pressure, or explicit EVICT) since the server started.
	TenantEvictions int64
}

// StatsFull returns the fully parsed STATS reply — stream weight and
// error band like Stats, plus the window, store, and tenant occupancy
// fields (a tenant handle's reply carries only the tenant's own
// counters and slots). Unknown key=value fields are ignored, so newer
// servers stay parseable. Idempotent: retried under WithRetry.
func (c *Client[T]) StatsFull() (ServerStats, error) {
	var st ServerStats
	err := c.do(c.label+"STATS", true, func() error {
		resp, rerr := c.roundTrip(c.scope, "STATS")
		if rerr != nil {
			return rerr
		}
		rest, ok := strings.CutPrefix(resp, "STATS ")
		if !ok {
			return badReply("bad stats %q", resp)
		}
		for _, field := range strings.Fields(rest) {
			key, val, ok := strings.Cut(field, "=")
			if !ok {
				return badReply("bad stats field %q in %q", field, resp)
			}
			n, perr := strconv.ParseInt(val, 10, 64)
			if perr != nil {
				return badReply("bad stats value %q in %q", field, resp)
			}
			switch key {
			case "n":
				st.N = n
			case "err":
				st.MaxErr = n
			case "shards":
				st.Shards = int(n)
			case "slots":
				st.WindowSlots = int(n)
			case "partitions":
				st.StorePartitions = int(n)
			case "tenants":
				st.Tenants = int(n)
			case "tenants_max":
				st.TenantsMax = int(n)
			case "tenant_evictions":
				st.TenantEvictions = n
			}
		}
		return nil
	})
	if err != nil {
		return ServerStats{}, err
	}
	return st, nil
}

// Snapshot fetches the scope's serialized summary and decodes it into a
// sketch — the §3 geographically-distributed pattern over the wire, and
// the unit the Cluster fan-out merges. Every scope's blob is the
// standard single-sketch wire format, so global, tenant, window and
// range snapshots merge with one another alike. Idempotent: retried
// under WithRetry.
func (c *Client[T]) Snapshot() (*freq.Sketch[T], error) {
	var sk *freq.Sketch[T]
	err := c.do(c.label+"SNAP", true, func() error {
		resp, err := c.roundTrip(c.scope, "SNAP")
		if err != nil {
			return err
		}
		sk, err = c.readSnapshot(resp)
		return err
	})
	if err != nil {
		return nil, err
	}
	return sk, nil
}

// readSnapshot consumes a "SNAP <bytes>" header's blob and decodes it.
func (c *Client[T]) readSnapshot(header string) (*freq.Sketch[T], error) {
	n, err := replyCount(header, "SNAP", maxSnapBytes)
	if err != nil {
		return nil, err
	}
	blob, err := readGrowing(n, c.readBlobInto)
	if err != nil {
		return nil, err
	}
	c.lastSnapBytes = n
	sk, err := freq.New[T](64)
	if err != nil {
		return nil, err
	}
	if err := sk.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return sk, nil
}

// Rotate advances the scope's sliding window one interval and returns
// its total rotation count. Not idempotent (each call advances the
// ring): transport failures are never auto-retried.
func (c *Client[T]) Rotate() (rotations int64, err error) {
	err = c.do(c.label+"ROTATE", false, func() error {
		resp, rerr := c.roundTrip(c.scope, "ROTATE")
		if rerr != nil {
			return rerr
		}
		if _, serr := fmt.Sscanf(resp, "OK %d", &rotations); serr != nil {
			return badReply("unexpected response %q", resp)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return rotations, nil
}

// Reset clears the scope's live summary and its window (stored history
// is untouched). Not auto-retried.
func (c *Client[T]) Reset() error { return c.exec("RESET", "RESET") }

// Evict asks the server to evict the handle's tenant now: its live
// summary is persisted to the server's store (when one is configured) and
// its slot returns to the warm pool. The handle stays valid — the next
// command recreates the tenant fresh. Not auto-retried.
func (c *Client[T]) Evict() error { return c.exec("EVICT", "EVICT") }

// Raw sends a raw protocol line in the handle's scope and returns the
// first response line (diagnostics and protocol tests). The command's
// idempotence is unknowable here, so Raw is never auto-retried.
func (c *Client[T]) Raw(line string) (string, error) {
	var resp string
	err := c.do(c.label+"RAW", false, func() error {
		var rerr error
		resp, rerr = c.roundTrip(c.scope, "%s", line)
		return rerr
	})
	if err != nil {
		return "", err
	}
	return resp, nil
}

// Err returns the first transport or protocol error encountered by the
// freq.Queryable-shaped methods, or nil. It does not reset.
func (c *Client[T]) Err() error { return c.err }

// fail records the first Queryable-path error.
func (c *Client[T]) fail(err error) {
	if c.err == nil && err != nil {
		c.err = err
	}
}

// Estimate returns the remote point estimate for item (one EST round
// trip); 0 and a sticky Err on transport failure.
func (c *Client[T]) Estimate(item T) int64 {
	est, _, _, err := c.Query(item)
	c.fail(err)
	return est
}

// LowerBound returns the remote lower bound for item.
func (c *Client[T]) LowerBound(item T) int64 {
	_, lb, _, err := c.Query(item)
	c.fail(err)
	return lb
}

// UpperBound returns the remote upper bound for item.
func (c *Client[T]) UpperBound(item T) int64 {
	_, _, ub, err := c.Query(item)
	c.fail(err)
	return ub
}

// MaximumError returns the remote summary's error band (via STATS, so
// a Window or Range handle records the server's ERR under Err).
func (c *Client[T]) MaximumError() int64 {
	_, maxErr, err := c.Stats()
	c.fail(err)
	return maxErr
}

// StreamWeight returns the remote stream weight (via STATS, all-time
// scopes only, like MaximumError).
func (c *Client[T]) StreamWeight() int64 {
	n, _, err := c.Stats()
	c.fail(err)
	return n
}

// All fetches every tracked row (FI with threshold 0, no false
// negatives) and iterates the result — the remote leg of the
// freq.Queryable contract. The fetch happens when iteration starts; a
// transport failure yields nothing and sets Err.
func (c *Client[T]) All() iter.Seq2[T, freq.Row[T]] {
	return func(yield func(T, freq.Row[T]) bool) {
		rows, err := c.FrequentItemsAboveThreshold(0, freq.NoFalseNegatives)
		if err != nil {
			c.fail(err)
			return
		}
		for _, r := range rows {
			if !yield(r.Item, r) {
				return
			}
		}
	}
}
