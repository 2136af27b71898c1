// Command freqd runs the frequent-items summary as a network service: a
// line-protocol TCP daemon over the concurrent sharded sketch. Collectors
// stream weighted updates; operators query live estimates, heavy hitters,
// and serialized snapshots (see freq/server for the protocol). High-rate
// collectors negotiate the length-prefixed binary framing for zero-copy
// batch ingest: the client offers "HELLO BIN 2" first, whose pairs
// frames may carry a tenant id, and falls back to "HELLO BIN 1"; the
// text protocol stays available on every connection for debugging and
// netcat sessions.
//
// With -window the daemon additionally maintains a sliding window of
// per-interval sketches and rotates it on a wall-clock ticker
// (-rotate-every); the WIN command then scopes queries to the last w
// intervals — "top talkers over the last minute" with -window 60
// -rotate-every 1s.
//
// With -store-dir the window becomes durable: every retired interval is
// appended to a time-partitioned on-disk store (see freq/store), the
// RANGE command serves historical queries over it, and -retention /
// -retention-bytes bound the footprint of each history (the global one
// and every tenant's), enforced at each append and once per
// -store-partition on every history.
//
// With -tenants the daemon serves many isolated summaries behind one
// port: the TENANT <id> command scope (and the HELLO BIN 2 framing's
// tenant-scoped batch frames) routes each update and query to a lazily
// created per-tenant sketch. -max-tenants bounds live occupancy (the
// idlest tenant is evicted to make room, its tables recycled through a
// warm pool), and -tenant-ttl evicts idle tenants on a sweep ticker.
// With -store-dir, eviction persists the tenant's summary under
// <store-dir>/tenants/, so TENANT RANGE queries see history across
// evictions and restarts.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting,
// lets every in-flight command finish and flush its reply (bounded by
// -drain-timeout; a second signal hard-closes immediately), then flushes
// the live head interval to the store before exiting — so a restart
// loses nothing, and no client sees a half-served command. -idle-timeout
// and -io-timeout protect the daemon from dead and wedged peers.
//
// Usage:
//
//	freqd -listen :7070 -k 24576 -shards 8
//	freqd -listen :7070 -k 24576 -window 60 -rotate-every 1s
//	freqd -listen :7070 -window 60 -rotate-every 1m \
//	      -store-dir /var/lib/freqd -store-partition 1h -retention 720h
//
// Try it:
//
//	printf 'U 7 100\nU 7 50\nQ 7\nTOP 5\nWIN 5 TOPK 5\nSTATS\nQUIT\n' | nc localhost 7070
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/freq/server"
	"repro/freq/store"
	"repro/freq/tenant"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7070", "listen address")
		k           = flag.Int("k", 24576, "total counter budget (per interval when -window is set)")
		shards      = flag.Int("shards", 8, "shard count for concurrent ingest")
		window      = flag.Int("window", 0, "sliding-window interval count (0 = all-time summary only)")
		rotateEvery = flag.Duration("rotate-every", time.Second, "wall-clock width of one window interval (with -window)")

		storeDir    = flag.String("store-dir", "", "directory for the durable slot store (empty = no durability)")
		storePart   = flag.Duration("store-partition", time.Hour, "wall-clock width of one store partition file")
		storeCodec  = flag.String("store-codec", "lz", "store block compression: lz or none")
		storeSync   = flag.Bool("store-sync", false, "fsync each appended slot before acknowledging the rotation")
		retention   = flag.Duration("retention", 0, "drop stored history older than this (0 = keep forever)")
		retainBytes = flag.Int64("retention-bytes", 0, "drop oldest stored history beyond this many bytes, per history: the global one and each tenant's (0 = no budget)")

		tenants    = flag.Bool("tenants", false, "enable the multi-tenant registry (TENANT commands, HELLO BIN 2 scoped batches)")
		maxTenants = flag.Int("max-tenants", 1024, "live tenant capacity: creating one more evicts the idlest (with -tenants)")
		tenantTTL  = flag.Duration("tenant-ttl", 0, "evict tenants idle for this long, persisting their history when -store-dir is set (0 = never)")

		idleTimeout  = flag.Duration("idle-timeout", 0, "drop connections idle between commands for this long (0 = never)")
		ioTimeout    = flag.Duration("io-timeout", 0, "per-command IO deadline: cut connections that stall mid-request or mid-reply (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "on SIGTERM/SIGINT, how long to let in-flight commands finish before hard-closing")
	)
	flag.Parse()
	if *window < 0 {
		fatal(fmt.Errorf("-window must be >= 0, got %d", *window))
	}
	if *window > 0 && *rotateEvery <= 0 {
		fatal(fmt.Errorf("-rotate-every must be positive, got %s", rotateEvery))
	}
	if *storeDir != "" && *window == 0 {
		fatal(fmt.Errorf("-store-dir requires -window: the store persists rotated window intervals"))
	}
	if !*tenants && (*tenantTTL != 0 || *maxTenants != 1024) {
		fatal(fmt.Errorf("-tenant-ttl and -max-tenants require -tenants"))
	}
	if *tenants && *maxTenants <= 0 {
		fatal(fmt.Errorf("-max-tenants must be positive, got %d", *maxTenants))
	}

	// Open the durable store first: it is the window's rotation sink, the
	// tenant registry's eviction sink and the history RANGE reads, in
	// every scope.
	var st *store.Store[int64]
	if *storeDir != "" {
		codec, err := store.CodecByName(*storeCodec)
		if err != nil {
			fatal(err)
		}
		st, err = store.Open[int64](*storeDir,
			store.WithPartitionDuration(*storePart),
			store.WithCodec(codec),
			store.WithRetentionAge(*retention),
			store.WithRetentionBytes(*retainBytes),
			store.WithSync(*storeSync),
		)
		if err != nil {
			fatal(err)
		}
	}

	cfg := server.Config{
		MaxCounters:     *k,
		Shards:          *shards,
		WindowIntervals: *window,
		IdleTimeout:     *idleTimeout,
		IOTimeout:       *ioTimeout,
		Store:           st,
	}

	// The tenant registry shares the daemon's sketch geometry: each
	// tenant gets its own k-counter summary (and windowed twin when
	// -window is set). With -store-dir, evicted tenants' summaries are
	// persisted under <store-dir>/tenants/<id> so TENANT RANGE sees
	// history across evictions and restarts.
	var mgr *tenant.Manager[int64]
	if *tenants {
		var err error
		mgr, err = tenant.New[int64](tenant.Config{
			MaxCounters:     *k,
			Shards:          *shards,
			WindowIntervals: *window,
			MaxTenants:      *maxTenants,
			IdleTTL:         *tenantTTL,
		})
		if err != nil {
			fatal(err)
		}
		if st != nil {
			mgr.SetSink(st)
		}
		cfg.Tenants = mgr
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "freqd: listening on %s (k=%d, shards=%d, %d KB summary budget)\n",
		ln.Addr(), *k, *shards, 24**k/1024)

	// The rotation loop is the daemon's window driver: one wall-clock-
	// aligned timer, one Rotate per interval boundary, stopped with the
	// listener. Manual ROTATE commands compose with it (both advance the
	// same ring).
	stopRotating := func() {}
	if *window > 0 {
		fmt.Fprintf(os.Stderr, "freqd: sliding window of %d x %s intervals\n", *window, rotateEvery)
		if st != nil {
			s := st.Stats()
			fmt.Fprintf(os.Stderr, "freqd: durable store at %s (%d partitions, %d blocks, %d bytes)\n",
				*storeDir, s.Partitions, s.Blocks, s.Bytes)
			srv.Windowed().SetRotationSink(st, time.Now())
		}
		stopRotating = srv.Windowed().StartRotating(*rotateEvery)
	}

	// Tenant maintenance tickers: the idle sweep walks the registry a few
	// times per TTL (bounded to [1s, 1m]), and the rotation ticker
	// advances every live tenant's window in lockstep with the global one.
	stopTenantTickers := func() {}
	if mgr != nil {
		fmt.Fprintf(os.Stderr, "freqd: multi-tenant registry (max %d tenants, idle ttl %s)\n", *maxTenants, tenantTTL)
		stopEvict := func() {}
		if *tenantTTL > 0 {
			sweep := *tenantTTL / 4
			sweep = max(sweep, time.Second)
			sweep = min(sweep, time.Minute)
			stopEvict = mgr.StartEvicting(sweep)
		}
		stopRotate := func() {}
		if *window > 0 {
			stopRotate = mgr.StartRotating(*rotateEvery)
		}
		stopTenantTickers = func() {
			stopEvict()
			stopRotate()
		}
	}

	// Appends enforce retention on the history they land in; this ticker
	// reaches the histories that stopped appending (an idle tenant, a
	// window whose last slot aged out).
	stopRetention := func() {}
	if st != nil && (*retention > 0 || *retainBytes > 0) {
		stopRetention = every(*storePart, func() {
			if err := st.EnforceRetention(); err != nil {
				fmt.Fprintln(os.Stderr, "freqd: retention failed:", err)
			}
		})
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	sigSeen := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		<-sig
		close(sigSeen)
		fmt.Fprintf(os.Stderr, "freqd: draining (up to %s for in-flight commands)\n", *drainTimeout)
		stopRotating()
		stopTenantTickers()
		// Graceful drain: stop accepting, let every command in flight
		// finish and flush its reply, hard-close stragglers at the
		// deadline. A second signal cuts the drain short.
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		go func() {
			<-sig
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "freqd: drain cut short:", err)
		}
		close(drained)
	}()

	serveErr := srv.Serve(ln)
	select {
	case <-sigSeen:
		// Signal-initiated stop: Serve returned because Shutdown closed
		// the listener. Wait for the drain — every handler must have
		// exited (and flushed its buffered ingest) before the store
		// flush below reads the window's final state.
		<-drained
	default:
		if serveErr != nil && serveErr != net.ErrClosed {
			// Closed listeners surface wrapped errors; a clean shutdown ends here.
			if ne, ok := serveErr.(*net.OpError); !ok || ne.Err.Error() != "use of closed network connection" {
				fatal(serveErr)
			}
		}
	}

	// Every handler has returned, so the registries hold their final
	// state. Drain every live tenant's head slot through the sink before
	// the store closes — a restart loses no tenant's history.
	if mgr != nil {
		mts := mgr.Stats()
		if err := mgr.Drain(time.Now()); err != nil {
			fmt.Fprintln(os.Stderr, "freqd: tenant drain failed:", err)
		}
		fmt.Fprintf(os.Stderr, "freqd: %d live tenants drained (%d created, %d evicted over the run)\n",
			mts.Active, mts.Created, mts.Evictions)
	}

	// Every handler has returned, so the window holds its final state.
	// Flush the live head interval into the store and close it — the
	// restart picks up a complete history.
	stopRetention()
	if st != nil {
		srv.Windowed().RotateAt(time.Now())
		if err := srv.Windowed().SinkErr(); err != nil {
			fmt.Fprintln(os.Stderr, "freqd: store append failed:", err)
		}
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "freqd: store close failed:", err)
		}
	}
	updates, queries := srv.Counters()
	fmt.Fprintf(os.Stderr, "freqd: served %d updates, %d queries\n", updates, queries)
}

// every runs f once per period on a goroutine until the returned stop
// function is called; stop returns after any run in progress.
func every(period time.Duration, f func()) (stop func()) {
	t := time.NewTicker(period)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-t.C:
				f()
			case <-done:
				return
			}
		}
	}()
	return func() {
		t.Stop()
		close(done)
		<-exited
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "freqd:", err)
	os.Exit(1)
}
