package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/freq"
	"repro/freq/store"
	"repro/freq/tenant"
)

// Config parameterizes a Server.
type Config struct {
	// MaxCounters is the total counter budget (default 24576). When a
	// window is configured it is also the per-interval budget of the
	// windowed summary.
	MaxCounters int
	// Shards is the concurrency fan-out (default 8).
	Shards int
	// WindowIntervals, when positive, additionally maintains a sliding
	// window of that many intervals alongside the all-time summary:
	// every update lands in both, the WIN command scopes queries to the
	// last w intervals, and ROTATE (or Server.Rotate, driven by freqd's
	// ticker) advances the window. Zero disables windowing.
	WindowIntervals int
	// Store, when set, backs the RANGE command family with durable
	// history: RANGE reads its default history of retired window slots
	// (the store installed as the window's rotation sink), and TENANT
	// <id> RANGE reads that tenant's history (the store installed as the
	// tenant registry's sink). Nil disables RANGE in every scope.
	Store *store.Store[int64]
	// Tenants, when set, enables the TENANT command family: every
	// command scoped by a "TENANT <id>" prefix runs against that
	// tenant's own summary pair from the manager's registry instead of
	// the global pair. Nil disables tenant scoping.
	Tenants *tenant.Manager[int64]
	// Seed, when nonzero, pins the sketch hash seeds: two servers built
	// with the same Seed and geometry hold byte-identical summary state
	// after identical update streams, so their SNAP encodings compare
	// equal — the property the cross-framing conformance suite asserts.
	// Zero (the default) draws independent random seeds per server.
	Seed uint64
	// IdleTimeout, when positive, bounds how long a connection may sit
	// between commands: a peer that goes silent has its connection closed
	// after this long instead of pinning a handler goroutine forever.
	// Zero (the default) keeps idle connections open indefinitely.
	IdleTimeout time.Duration
	// IOTimeout, when positive, bounds the reads and writes within one
	// command — the pair lines of a UB block, a frame payload, a reply
	// flush — so a peer that stalls mid-command is cut off. Zero (the
	// default) leaves in-command IO unbounded (an idle timeout still
	// applies between commands).
	IOTimeout time.Duration
}

// Server owns the live summary and serves the line protocol.
type Server struct {
	sketch *freq.Concurrent[int64]
	// win is the optional sliding-window twin of the summary; nil when
	// Config.WindowIntervals is zero.
	win *freq.ConcurrentWindowed[int64]
	// store is the optional durable history behind RANGE in every
	// scope; nil disables it.
	store *store.Store[int64]
	// tenants is the optional per-tenant registry behind the TENANT
	// command family; nil disables it.
	tenants *tenant.Manager[int64]

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*connState
	closed bool
	wg     sync.WaitGroup
	// updates and queries back Counters. They are atomics, not a
	// mutex, because every ingest path bumps updates — the binary pairs
	// loop included — and must not serialize connections on it.
	updates atomic.Int64
	queries atomic.Int64

	// idleTimeout/ioTimeout are Config.IdleTimeout/Config.IOTimeout.
	idleTimeout time.Duration
	ioTimeout   time.Duration
	// draining is set by Shutdown: handlers finish the command in flight
	// and exit instead of reading the next one.
	draining atomic.Bool
}

// connState is the drain-coordination handle for one connection: busy is
// held by the handler exactly while a command is being processed (from a
// successfully read request line or frame until its reply is flushed),
// so Shutdown can TryLock to distinguish idle connections — safe to
// close immediately — from in-flight ones, which get to finish.
type connState struct {
	busy sync.Mutex
}

// New returns a server with a fresh summary.
func New(cfg Config) (*Server, error) {
	if cfg.MaxCounters == 0 {
		cfg.MaxCounters = 24576
	}
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	opts := []freq.Option{freq.WithShards(cfg.Shards)}
	if cfg.Seed != 0 {
		opts = append(opts, freq.WithSeed(cfg.Seed))
	}
	sk, err := freq.NewConcurrent[int64](cfg.MaxCounters, opts...)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		sketch:      sk,
		store:       cfg.Store,
		tenants:     cfg.Tenants,
		conns:       map[net.Conn]*connState{},
		idleTimeout: cfg.IdleTimeout,
		ioTimeout:   cfg.IOTimeout,
	}
	if cfg.WindowIntervals > 0 {
		var wopts []freq.Option
		if cfg.Seed != 0 {
			// Vary the pinned seed so the window ring never correlates
			// with the all-time summary's shards.
			wopts = append(wopts, freq.WithSeed(cfg.Seed^0x77696e646f777331))
		}
		win, err := freq.NewConcurrentWindowed[int64](cfg.MaxCounters, cfg.WindowIntervals, wopts...)
		if err != nil {
			return nil, err
		}
		srv.win = win
	}
	return srv, nil
}

// Sketch exposes the underlying summary (for embedding and tests).
func (s *Server) Sketch() *freq.Concurrent[int64] { return s.sketch }

// Windowed exposes the optional sliding-window summary; nil when the
// server was configured without one.
func (s *Server) Windowed() *freq.ConcurrentWindowed[int64] { return s.win }

// Tenants exposes the optional per-tenant registry; nil when the server
// was configured without one.
func (s *Server) Tenants() *tenant.Manager[int64] { return s.tenants }

// ErrNoWindow rejects window-scoped operations on a server configured
// without a sliding window.
var ErrNoWindow = errors.New("server: no window configured (set Config.WindowIntervals)")

// ErrNoStore rejects RANGE commands, global or tenant-scoped, on a
// server configured without a durable store.
var ErrNoStore = errors.New("server: no store configured (set Config.Store)")

// ErrNoTenants rejects TENANT commands on a server configured without a
// tenant registry.
var ErrNoTenants = errors.New("server: no tenants configured (set Config.Tenants)")

// Rotate advances the sliding window one interval — the hook a
// rotation driver (freqd's wall-clock ticker, a test, an operator via
// the ROTATE command) calls at each interval boundary.
func (s *Server) Rotate() error {
	if s.win == nil {
		return ErrNoWindow
	}
	s.win.Rotate()
	return nil
}

// Serve accepts connections on ln until Close is called. It returns
// net.ErrClosed after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		st := &connState{}
		s.conns[conn] = st
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn, st)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, hard-closes all connections, and waits for
// handlers. Commands in flight are cut off mid-stream (their summary
// mutations stay all-or-nothing; see the drain tests). For a graceful
// stop that lets in-flight work finish, use Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown gracefully drains the server: it stops accepting, closes
// connections that are idle between commands, and lets every command in
// flight — a UB block mid-pair-lines, a PAIRS frame mid-payload, a SNAP
// mid-blob — finish and flush its reply. Handlers exit after their
// current command instead of reading the next. When ctx expires before
// the drain completes, the remaining connections are hard-closed (their
// in-flight mutations remain all-or-nothing) and ctx's error is
// returned; a completed drain returns the listener's close error, if
// any. Safe to call concurrently with Close and from signal handlers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	s.draining.Store(true)
	var lnErr error
	if ln != nil && !alreadyClosed {
		lnErr = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	// Poll: close whichever connections are idle right now, then wait for
	// the rest to finish their in-flight command and exit on the draining
	// flag. The poll re-runs because a pipelining connection can only be
	// caught between commands.
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		s.closeIdleConns()
		select {
		case <-done:
			return lnErr
		case <-ctx.Done():
			s.mu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.mu.Unlock()
			s.wg.Wait()
			return errors.Join(lnErr, ctx.Err())
		case <-tick.C:
		}
	}
}

// closeIdleConns closes every connection not currently processing a
// command: its handler is blocked reading the next request, and closing
// the conn wakes it into a clean exit (which still flushes the
// connection's buffered ingest into the summary).
func (s *Server) closeIdleConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for nc, st := range s.conns {
		if st.busy.TryLock() {
			nc.Close()
			st.busy.Unlock()
		}
	}
}

// MaxWireBatch caps a UB block so a malicious count cannot force an
// arbitrarily large allocation; Client.UpdateBatch transparently chunks
// larger batches.
const MaxWireBatch = 1 << 20

// conn is one connection's state: the protocol streams plus the
// per-connection buffered writer that carries the ingest hot path (one
// goroutine per connection makes the writer's single-goroutine contract
// hold by construction).
type conn struct {
	srv *Server
	// nc is the raw connection, kept for deadline arming.
	nc net.Conn
	// st is the drain-coordination handle shared with Server.Shutdown.
	st *connState
	// r replaces the line scanner so the connection can switch framings:
	// after a HELLO BIN upgrade the same buffered reader hands out binary
	// frames with nothing lost between the framing boundary.
	r *bufio.Reader
	// nw is the buffered writer over the real connection. w is where
	// dispatch writes command replies: identical to nw in text framing,
	// redirected into replyBuf in binary framing so each reply is framed
	// whole (see binaryLoop).
	nw     *bufio.Writer
	w      *bufio.Writer
	writer *freq.Writer[int64]
	// bin is set by a successful HELLO BIN negotiation; the text loop
	// hands the connection to binaryLoop when it sees it. binVer is the
	// negotiated binary version (1: v1 PAIRS frames only; 2: PAIRS
	// frames carry a tenant-id header, empty = global).
	bin    bool
	binVer int
	// idBuf holds the tenant id of the v2 PAIRS frame being served;
	// tenItems/tenWeights split its pairs into the column layout the
	// tenant batch path takes. All reused per connection so the binary
	// tenant ingest loop allocates nothing at steady state.
	idBuf      []byte
	tenItems   []int64
	tenWeights []int64
	// winItems/winWeights buffer this connection's single-U updates for
	// the windowed twin, mirroring the Writer's batching for the
	// all-time summary: without it every U would take the one
	// process-wide window mutex, serializing all connections on exactly
	// the per-update lock the Writer exists to avoid. Flushed together
	// with the writer (threshold, any non-update command, connection
	// end), so both summaries expose the same read-your-writes and
	// at-most-one-batch-lag semantics.
	winItems   []int64
	winWeights []int64
	// snapBuf is the connection's reusable SNAP encoding buffer: the
	// epoch-cached view serializes into it through the alloc-free
	// AppendBinary kernel, so a poll loop of SNAP commands allocates
	// nothing after the first.
	snapBuf []byte
	// rangeSk is the connection's reusable RANGE accumulator: the store
	// clears and refills it in place (QueryInto), so a poll loop over a
	// stable range allocates nothing after the first query.
	rangeSk *freq.Sketch[int64]
	// Binary-framing state (see binary.go): pairBuf is the reusable
	// frame payload buffer, allocated as pairs so the little-endian wire
	// layout reinterprets in place with correct alignment; replyBuf and
	// bw capture a command's reply so it can be framed whole; okBuf
	// renders the hot-path "OK <n>" acknowledgements without fmt.
	pairBuf  []freq.Pair[int64]
	replyBuf bytes.Buffer
	bw       *bufio.Writer
	okBuf    []byte
	// hdr is the frame-header scratch shared by the read and write
	// sides (never live at once): a local array would escape through
	// the io interfaces and cost one heap allocation per frame.
	hdr [frameHeader]byte
}

// errLineTooLong drops connections whose current line exceeds the
// 64 KiB framing limit; there is no way to resynchronize mid-line.
var errLineTooLong = errors.New("server: line exceeds 64 KiB limit")

// armIdle arms the between-commands read deadline. When only an IO
// timeout is configured the previous command's deadline is cleared, so
// a legitimately quiet connection is not killed by a stale in-command
// deadline.
//
//freq:noalloc
func (c *conn) armIdle() {
	switch {
	case c.srv.idleTimeout > 0:
		c.nc.SetReadDeadline(time.Now().Add(c.srv.idleTimeout))
	case c.srv.ioTimeout > 0:
		c.nc.SetReadDeadline(time.Time{})
	}
}

// armIO arms the in-command deadline around both directions: the rest
// of the request (pair lines, frame payload) and the reply flush.
//
//freq:noalloc
func (c *conn) armIO() {
	if c.srv.ioTimeout > 0 {
		c.nc.SetDeadline(time.Now().Add(c.srv.ioTimeout))
	}
}

// readLine returns the next '\n'-terminated line (delimiter stripped,
// final unterminated line included), or an error when the connection is
// done or a line overflows the read buffer.
func (c *conn) readLine() (string, error) {
	b, err := c.r.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return "", errLineTooLong
		}
		if err == io.EOF && len(b) > 0 {
			return string(b), nil
		}
		return "", err
	}
	return string(b[:len(b)-1]), nil
}

// addWindowed buffers one windowed update, flushing at the writer's
// default batch size.
func (c *conn) addWindowed(item, weight int64) {
	c.winItems = append(c.winItems, item)
	c.winWeights = append(c.winWeights, weight)
	if len(c.winItems) >= freq.DefaultBatchSize {
		c.flushWindowed()
	}
}

// flushWindowed applies the buffered windowed updates under one lock
// acquisition; without a window nothing is ever buffered and it is a
// no-op. Weights were validated non-negative on ingest, so the batch
// cannot fail.
func (c *conn) flushWindowed() {
	if len(c.winItems) == 0 {
		return
	}
	_ = c.srv.win.UpdateWeightedBatch(c.winItems, c.winWeights)
	c.winItems = c.winItems[:0]
	c.winWeights = c.winWeights[:0]
}

func (s *Server) handle(nc net.Conn, st *connState) {
	defer nc.Close()
	writer, err := freq.NewWriter(s.sketch)
	if err != nil {
		return // unreachable: no options are passed
	}
	defer writer.Close()
	nw := bufio.NewWriter(nc)
	c := &conn{srv: s, nc: nc, st: st, r: bufio.NewReaderSize(nc, 64*1024), nw: nw, w: nw, writer: writer}
	defer c.flushWindowed()
	for {
		c.armIdle()
		line, rerr := c.readLine()
		if rerr != nil {
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// busy marks a command in flight: Shutdown's idle-closer skips the
		// connection until the reply below has flushed.
		st.busy.Lock()
		c.armIO()
		quit, err := c.dispatch(line)
		if err != nil {
			// An ERR reply is exactly one line; joined errors (errors.Join
			// separates with '\n') must not smuggle extra lines into the
			// reply stream.
			fmt.Fprintf(c.w, "ERR %s\n", sanitizeLine(err.Error()))
		}
		ferr := c.nw.Flush()
		st.busy.Unlock()
		if ferr != nil || quit {
			return
		}
		if s.draining.Load() {
			// Graceful drain: the command in flight got its reply; exit
			// instead of reading the next one (the deferred writer close
			// flushes this connection's buffered ingest).
			return
		}
		if c.bin {
			// A successful HELLO BIN was just acknowledged in text; every
			// byte from here on is binary-framed.
			c.binaryLoop()
			return
		}
	}
}

// scope is what one command runs against, resolved once per command by
// dispatch: the global summaries, or the tenant a "TENANT <id>" prefix
// acquired for exactly the duration of the command, so an eviction can
// never recycle the tables out from under a command in flight. Either
// way it is an all-time sketch, its optional window twin and, keyed by
// id, a history in the optional store, so each verb is implemented once
// for both.
type scope struct {
	sk  *freq.Concurrent[int64]
	win *freq.ConcurrentWindowed[int64]
	// ten is the acquired tenant and id its id; nil and "" for the
	// global scope.
	ten *tenant.Tenant[int64]
	id  string
}

// dispatch executes one protocol line, writing the response to the
// connection: it resolves the command's scope, then runs the one verb
// switch every scope shares. Updates (U, UB) ride the buffered batch
// path; every other command flushes the connection's writer first, so a
// connection always reads its own writes.
func (c *conn) dispatch(line string) (quit bool, err error) {
	s := c.srv
	w := c.w
	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	args := fields[1:]
	if cmd != "U" && cmd != "UB" {
		if err := c.flush(); err != nil {
			return false, err
		}
	}
	switch cmd {
	case "HELLO":
		return false, c.hello(args)
	case "QUIT":
		fmt.Fprintln(w, "BYE")
		return true, nil
	}
	sc := scope{sk: s.sketch, win: s.win}
	// usage prefixes the update verbs' usage errors, kind the unknown
	// command error; both name the tenant scope.
	usage, kind := "", ""
	if cmd == "TENANT" {
		if s.tenants == nil {
			return false, ErrNoTenants
		}
		if len(args) < 2 {
			return false, errors.New("usage: TENANT <id> <command> ...")
		}
		sc.id, cmd, args = args[0], strings.ToUpper(args[1]), args[2:]
		usage, kind = "TENANT <id> ", "tenant "
		switch {
		case cmd == "EVICT":
			// EVICT must not acquire the handle it is trying to retire: a
			// held handle is exactly what Evict rejects as busy.
			if len(args) != 0 {
				return false, errors.New("usage: TENANT <id> EVICT")
			}
			if err := s.tenants.Evict(sc.id); err != nil {
				return false, err
			}
			fmt.Fprintln(w, "OK")
			return false, nil
		case cmd == "UB" && c.bin:
			// Inside a CMD frame the pair lines would have to be read
			// from the binary stream as text — a framing violation. The
			// binary tenant batch path is a v2 PAIRS frame.
			return false, errors.New("TENANT UB is text-framing only (binary clients send v2 PAIRS frames)")
		}
	}
	var items, weights []int64
	if cmd == "UB" {
		// The client committed the pair lines to the wire with the
		// header, so consume the batch before acquiring a tenant: a
		// failed acquire (bad id, full registry) must still leave the
		// connection synchronized.
		var q bool
		if items, weights, q, err = c.readBatch(args, usage+"UB <count>"); err != nil {
			return q, err
		}
	}
	if sc.id != "" {
		if sc.ten, err = s.tenants.Acquire(sc.id); err != nil {
			return false, err
		}
		defer sc.ten.Release()
		sc.sk, sc.win = sc.ten.Sketch(), sc.ten.Windowed()
	}
	switch cmd {
	case "U":
		if len(args) != 2 {
			return false, fmt.Errorf("usage: %sU <item> <weight>", usage)
		}
		item, err1 := strconv.ParseInt(args[0], 10, 64)
		weight, err2 := strconv.ParseInt(args[1], 10, 64)
		if err1 != nil || err2 != nil {
			return false, errors.New("bad integer")
		}
		// Global singles ride the connection's buffered writer and its
		// windowed twin; a tenant has no per-connection writer.
		if sc.ten != nil {
			err = sc.ten.Update(item, weight)
		} else if err = c.writer.Add(item, weight); err == nil && sc.win != nil {
			c.addWindowed(item, weight)
		}
		if err != nil {
			return false, err
		}
		s.updates.Add(1)
		fmt.Fprintln(w, "OK")
	case "UB":
		// Preserve per-connection ordering: buffered singles land before
		// the batch, and the batch is all-or-nothing.
		if err := c.flush(); err != nil {
			return false, err
		}
		if err := sc.sk.UpdateWeightedBatch(items, weights); err != nil {
			return false, err
		}
		if sc.win != nil {
			// Validated by the all-time batch above; cannot fail.
			_ = sc.win.UpdateWeightedBatch(items, weights)
		}
		s.updates.Add(int64(len(items)))
		fmt.Fprintf(w, "OK %d\n", len(items))
	case "Q", "EST", "TOP", "TOPK", "FI", "SNAPSHOT", "SNAP":
		return false, c.read(liveSource{sc.sk}, "", "", cmd, args)
	case "HH":
		// Heavy hitters are relative to the all-time stream weight, so HH
		// has no WIN or RANGE form.
		if len(args) != 1 {
			return false, errors.New("usage: HH <phi-millis>")
		}
		millis, err := strconv.Atoi(args[0])
		if err != nil || millis < 0 || millis > 1000 {
			return false, errors.New("phi-millis must be 0..1000")
		}
		threshold := int64(float64(millis) / 1000 * float64(sc.sk.StreamWeight()))
		rows, err := liveSource{sc.sk}.aboveThreshold(threshold, freq.NoFalseNegatives)
		if err != nil {
			return false, err
		}
		writeRows(w, rows)
	case "WIN":
		if sc.win == nil {
			return false, ErrNoWindow
		}
		if len(args) < 2 {
			return false, errors.New("usage: WIN <w> <EST|TOPK|FI|SNAP> ...")
		}
		width, err := strconv.Atoi(args[0])
		if err != nil || width < 1 {
			return false, errors.New("bad window width")
		}
		return false, c.read(windowSource{sc.win, width}, "WIN <w> ", "window ", strings.ToUpper(args[1]), args[2:])
	case "RANGE":
		return false, c.readRange(sc, args)
	case "STATS":
		// One reply shape per scope regardless of configuration: the
		// optional subsystems report zero when absent, and the tenant
		// reply is the global reply's leading fields. Clients parse the
		// leading fields positionally (Client.Stats) or the whole line
		// as key=value pairs (Client.StatsFull); both tolerate growth.
		slots := 0
		if sc.win != nil {
			slots = sc.win.Intervals()
		}
		fmt.Fprintf(w, "STATS n=%d err=%d shards=%d slots=%d",
			sc.sk.StreamWeight(), sc.sk.MaximumError(), sc.sk.NumShards(), slots)
		if sc.ten == nil {
			partitions := 0
			if s.store != nil {
				partitions = s.store.PartitionCount()
			}
			var ts tenant.Stats
			if s.tenants != nil {
				ts = s.tenants.Stats()
			}
			fmt.Fprintf(w, " partitions=%d tenants=%d tenants_max=%d tenant_evictions=%d",
				partitions, ts.Active, ts.Max, ts.Evictions)
		}
		fmt.Fprintln(w)
	case "ROTATE":
		if sc.win == nil {
			return false, ErrNoWindow
		}
		sc.win.Rotate()
		fmt.Fprintf(w, "OK %d\n", sc.win.Rotations())
	case "RESET":
		// Both summaries clear together: a reset scope must not keep
		// answering window-scoped queries from pre-reset data. Stored
		// history is untouched.
		sc.sk.Reset()
		if sc.win != nil {
			sc.win.Reset()
		}
		fmt.Fprintln(w, "OK")
	default:
		return false, fmt.Errorf("unknown %scommand %q", kind, cmd)
	}
	return false, nil
}

// flush applies the connection's buffered updates to the global
// summaries: the writer's pairs and their windowed twins.
func (c *conn) flush() error {
	if err := c.writer.Flush(); err != nil {
		return err
	}
	c.flushWindowed()
	return nil
}

// hello serves the framing negotiation. "HELLO BIN <v>" (v in
// 1..binaryVersionMax) upgrades the connection to the length-prefixed
// binary framing at that version (acknowledged in text — the switch
// happens after this reply flushes); clients offer their best version
// and descend on ERR, so an old server declining BIN 2 falls back to
// BIN 1 cleanly. "HELLO TEXT 1" explicitly confirms the default.
// Anything else is a sanitized one-line ERR and the connection stays in
// text framing, fully synchronized: HELLO is a single line, so there is
// nothing in flight to drain.
func (c *conn) hello(args []string) error {
	if c.bin {
		// Reached via a CMD frame: the framing is already fixed for the
		// connection's lifetime and cannot be renegotiated.
		return errors.New("framing already negotiated")
	}
	if len(args) != 2 {
		return errors.New("usage: HELLO <BIN|TEXT> <version>")
	}
	proto := strings.ToUpper(args[0])
	ver, verr := strconv.Atoi(args[1])
	if verr != nil {
		return errors.New("usage: HELLO <BIN|TEXT> <version>")
	}
	switch {
	case proto == "BIN" && ver >= binaryVersionMin && ver <= binaryVersionMax:
		c.bin = true
		c.binVer = ver
		fmt.Fprintf(c.w, "HELLO BIN %d\n", ver)
	case proto == "TEXT" && ver == 1:
		fmt.Fprintln(c.w, "HELLO TEXT 1")
	default:
		return fmt.Errorf("unsupported protocol %s %d (want BIN %d..%d or TEXT 1)",
			proto, ver, binaryVersionMin, binaryVersionMax)
	}
	return nil
}

// readBatch consumes one UB-style batch — the "<count>" argument plus
// that many "<item> <weight>" pair lines — shared by the global UB and
// the TENANT-scoped UB. usage names the command shape for error text.
// The desync discipline is the load-bearing part: an announced count
// within the cap is always fully consumed (drained past errors) so the
// connection stays synchronized, while an over-cap count — unbounded
// work — replies once and drops the connection (quit=true).
func (c *conn) readBatch(args []string, usage string) (items, weights []int64, quit bool, err error) {
	if len(args) < 1 {
		return nil, nil, false, fmt.Errorf("usage: %s", usage)
	}
	n, aerr := strconv.Atoi(args[0])
	if aerr != nil {
		// The announced batch length is unknowable; nothing can be
		// drained. (A real client never sends this: the count is the
		// one field it computes itself.)
		return nil, nil, false, fmt.Errorf("usage: %s", usage)
	}
	if len(args) != 1 || n < 1 || n > MaxWireBatch {
		if n > MaxWireBatch {
			// The announced count exceeds the protocol cap, so the
			// pair lines in flight cannot be consumed within bounded
			// work (the count is a liar's number); reply once and drop
			// the connection instead of reinterpreting the pairs as
			// commands — the pre-fix behaviour, whose per-line ERR
			// flood desynchronized the reply stream and could deadlock
			// against a client that writes the whole batch first.
			return nil, nil, true, fmt.Errorf("batch count must be 1..%d", MaxWireBatch)
		}
		// Invalid, but the count is known and within the cap — and the
		// client has already committed that many pair lines to the
		// wire. Consume them all before replying, keeping the
		// connection synchronized and usable.
		if !c.drainLines(n) {
			return nil, nil, true, errors.New("connection closed mid-batch")
		}
		if len(args) != 1 {
			return nil, nil, false, fmt.Errorf("usage: %s", usage)
		}
		return nil, nil, false, fmt.Errorf("batch count must be 1..%d", MaxWireBatch)
	}
	items = make([]int64, 0, n)
	weights = make([]int64, 0, n)
	var parseErr error
	for i := 0; i < n; i++ {
		// Consume the whole block even past a bad line, so one
		// malformed pair does not desynchronize the protocol. The IO
		// deadline re-arms per line: a peer making progress is never
		// cut off mid-block, a stalled one is.
		c.armIO()
		pairLine, rerr := c.readLine()
		if rerr != nil {
			return nil, nil, true, errors.New("connection closed mid-batch")
		}
		f := strings.Fields(pairLine)
		if parseErr != nil {
			continue
		}
		if len(f) != 2 {
			parseErr = fmt.Errorf("batch line %d: want \"<item> <weight>\"", i+1)
			continue
		}
		item, err1 := strconv.ParseInt(f[0], 10, 64)
		weight, err2 := strconv.ParseInt(f[1], 10, 64)
		if err1 != nil || err2 != nil {
			parseErr = fmt.Errorf("batch line %d: bad integer", i+1)
			continue
		}
		items = append(items, item)
		weights = append(weights, weight)
	}
	if parseErr != nil {
		return nil, nil, false, parseErr
	}
	return items, weights, false, nil
}

// drainLines consumes up to n protocol lines without interpreting or
// answering them — the resynchronization step after a rejected batch
// whose pair lines are already in flight. It reports whether the
// connection stayed alive.
func (c *conn) drainLines(n int) bool {
	for i := 0; i < n; i++ {
		c.armIO()
		if _, err := c.readLine(); err != nil {
			return false
		}
	}
	return true
}

// source is one summary the read verbs answer from: a scope's live
// all-time sketch, the merged view of its last w window intervals, or
// the merged view of its stored history over a RANGE. Replies are
// shaped identically whichever it is.
type source interface {
	estimate(item int64) (est, lb, ub int64)
	topK(n int) ([]freq.Row[int64], error)
	aboveThreshold(threshold int64, et freq.ErrorType) ([]freq.Row[int64], error)
	appendBinary(dst []byte) ([]byte, error)
}

// liveSource reads the all-time sketch: EST from its live per-shard
// bands, TOPK from each shard's largest counters when they hold the
// merged view's top rows (Concurrent.Query), and FI, HH, SNAP and the
// TOPK that cannot tell from its epoch-cached merged view, so repeated
// reads with no interleaved writes re-merge nothing.
type liveSource struct{ sk *freq.Concurrent[int64] }

func (l liveSource) estimate(item int64) (est, lb, ub int64) {
	return l.sk.Estimate(item), l.sk.LowerBound(item), l.sk.UpperBound(item)
}

func (l liveSource) topK(n int) ([]freq.Row[int64], error) {
	return l.sk.Query().Limit(n).Collect(), nil
}

func (l liveSource) aboveThreshold(threshold int64, et freq.ErrorType) ([]freq.Row[int64], error) {
	v, err := l.sk.View()
	if err != nil {
		return nil, err
	}
	return viewSource{v}.aboveThreshold(threshold, et)
}

func (l liveSource) appendBinary(dst []byte) ([]byte, error) {
	v, err := l.sk.View()
	if err != nil {
		return dst, err
	}
	return v.AppendBinary(dst)
}

// windowSource answers as the merged view of the last width intervals
// of a window: EST and TOPK from the slots themselves (the merge only
// when TOPK cannot certify its rows), FI and SNAP from the merge. Each
// read holds the window lock once, so an EST triple describes one
// window state.
type windowSource struct {
	win   *freq.ConcurrentWindowed[int64]
	width int
}

func (ws windowSource) estimate(item int64) (est, lb, ub int64) {
	return ws.win.EstimateLast(ws.width, item)
}

func (ws windowSource) topK(n int) ([]freq.Row[int64], error) {
	return ws.win.TopKLast(ws.width, n), nil
}

func (ws windowSource) aboveThreshold(threshold int64, et freq.ErrorType) ([]freq.Row[int64], error) {
	return ws.win.FrequentItemsAboveThresholdLast(ws.width, threshold, et), nil
}

func (ws windowSource) appendBinary(dst []byte) ([]byte, error) {
	return ws.win.AppendBinaryLast(ws.width, dst)
}

// viewSource reads one merged view: a RANGE view of stored slots, or
// the all-time sketch's cached view for liveSource's FI and HH reads.
type viewSource struct{ v *freq.View[int64] }

func (vs viewSource) estimate(item int64) (est, lb, ub int64) {
	return vs.v.Estimate(item), vs.v.LowerBound(item), vs.v.UpperBound(item)
}

func (vs viewSource) topK(n int) ([]freq.Row[int64], error) {
	return vs.v.Query().Limit(n).Collect(), nil
}

func (vs viewSource) aboveThreshold(threshold int64, et freq.ErrorType) ([]freq.Row[int64], error) {
	return vs.v.Query().Where(threshold).WithErrorType(et).Collect(), nil
}

func (vs viewSource) appendBinary(dst []byte) ([]byte, error) { return vs.v.AppendBinary(dst) }

// read serves one read verb — EST/Q, TOPK/TOP, FI or SNAP/SNAPSHOT —
// from src. usage names the scope in usage errors ("", "WIN <w> ",
// "RANGE <from> <to> ") and kind in the unknown-verb error ("window ",
// "range ").
func (c *conn) read(src source, usage, kind, verb string, args []string) error {
	w := c.w
	switch verb {
	case "Q", "EST":
		if len(args) != 1 {
			return fmt.Errorf("usage: %s%s <item>", usage, verb)
		}
		item, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			return errors.New("bad integer")
		}
		c.srv.queries.Add(1)
		est, lb, ub := src.estimate(item)
		fmt.Fprintf(w, "EST %d %d %d\n", est, lb, ub)
	case "TOP", "TOPK":
		if len(args) != 1 {
			return fmt.Errorf("usage: %s%s <n>", usage, verb)
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 {
			return errors.New("bad count")
		}
		rows, err := src.topK(n)
		if err != nil {
			return err
		}
		writeRows(w, rows)
	case "FI":
		if len(args) != 2 {
			return fmt.Errorf("usage: %sFI <et> <threshold>", usage)
		}
		et, err := parseErrorType(args[0])
		if err != nil {
			return err
		}
		threshold, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return errors.New("bad threshold")
		}
		rows, err := src.aboveThreshold(threshold, et)
		if err != nil {
			return err
		}
		writeRows(w, rows)
	case "SNAPSHOT", "SNAP":
		// Every scope's snapshot is the ordinary single-sketch wire
		// format, so one client decode path (and the Cluster merge)
		// serves them all. The encoding reuses the connection's buffer:
		// a SNAP poll loop allocates nothing after the first reply.
		buf, err := src.appendBinary(c.snapBuf[:0])
		c.snapBuf = buf
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "SNAP %d\n", len(buf))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown %scommand %q", kind, verb)
	}
	return nil
}

// readRange serves one RANGE-scoped read: the scope's persisted slots
// overlapping [from, to), merged into one summary — the store's default
// history for the global scope (id ""), the tenant's for a tenant
// scope. The merge reuses the connection's accumulator, so polling a
// stable range costs no allocation.
func (c *conn) readRange(sc scope, args []string) error {
	s := c.srv
	if s.store == nil {
		return ErrNoStore
	}
	if len(args) < 3 {
		return errors.New("usage: RANGE <from> <to> <EST|TOPK|FI|SNAP> ...")
	}
	from, err := parseTime(args[0])
	if err != nil {
		return fmt.Errorf("bad from: %w", err)
	}
	to, err := parseTime(args[1])
	if err != nil {
		return fmt.Errorf("bad to: %w", err)
	}
	if !to.After(from) {
		return errors.New("empty range: to must be after from")
	}
	sk, err := s.store.QueryTenantInto(sc.id, c.rangeSk, from, to)
	if sk != nil {
		c.rangeSk = sk
	}
	if err != nil {
		return err
	}
	return c.read(viewSource{freq.NewView(sk)}, "RANGE <from> <to> ", "range ", strings.ToUpper(args[2]), args[3:])
}

// parseTime reads a RANGE bound: integer unix seconds or an RFC 3339
// timestamp ("2026-08-08T12:00:00Z").
func parseTime(s string) (time.Time, error) {
	if secs, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Unix(secs, 0), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, errors.New("want unix seconds or RFC3339")
	}
	return t, nil
}

// parseErrorType reads the FI semantics field: the numeric freq values
// (0, 1) or the mnemonic names, case-insensitively.
func parseErrorType(s string) (freq.ErrorType, error) {
	switch strings.ToUpper(s) {
	case "0", "NFP", "NOFALSEPOSITIVES":
		return freq.NoFalsePositives, nil
	case "1", "NFN", "NOFALSENEGATIVES":
		return freq.NoFalseNegatives, nil
	}
	return 0, fmt.Errorf("bad error type %q (want 0/NFP or 1/NFN)", s)
}

// sanitizeLine collapses a potentially multi-line message (errors.Join
// separates causes with '\n') into the single line an ERR reply must
// be: an embedded newline would desync the client's line-oriented
// reader, which is exactly the bug class the wirereply analyzer exists
// to keep extinct. Every string that reaches an ERR reply goes through
// here or errFrame.
//
//freq:sanitizer
func sanitizeLine(s string) string {
	return strings.ReplaceAll(s, "\n", "; ")
}

func writeRows(w io.Writer, rows []freq.Row[int64]) {
	fmt.Fprintf(w, "MULTI %d\n", len(rows))
	for _, r := range rows {
		fmt.Fprintf(w, "ITEM %d %d %d %d\n", r.Item, r.Estimate, r.LowerBound, r.UpperBound)
	}
}

// Counters returns the number of updates and queries served
// (diagnostics). An EST/Q in any scope counts as one query.
func (s *Server) Counters() (updates, queries int64) {
	return s.updates.Load(), s.queries.Load()
}
