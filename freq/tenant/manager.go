// Package tenant multiplexes the frequent-items service across many
// independent streams: a Manager owns a bounded registry of lazily
// created per-tenant summaries (each a Concurrent sketch plus an
// optional ConcurrentWindowed twin, geometry stamped from one shared
// template) and recycles retired tenants' tables through a warm pool,
// so tenant churn at steady state allocates nothing — the same
// core.Clear / Concurrent.Reset machinery that makes window rotation
// alloc-free.
//
// Quotas bound every axis: MaxCounters caps each tenant's summary,
// MaxTenants caps the registry (capacity pressure evicts the idlest
// unreferenced tenant), and IdleTTL retires tenants nobody has touched
// lately. Eviction is not loss when a SnapshotSink is installed: the
// retiring tenant's summary is persisted first (a freq/store Store
// files it under a tenant-scoped directory), so an evicted tenant's
// history survives and RANGE-style queries can replay it.
//
// Handles are reference counted: Acquire pins a tenant for the duration
// of one command and Release unpins it, and only unreferenced tenants
// are evictable — a reader mid-TOPK can never have its tables reset
// (and its weight leaked into a stranger's stream) by a concurrent
// eviction.
package tenant

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/freq"
)

// Errors reported by the manager. They are wrapped with context; test
// with errors.Is.
var (
	// ErrBadID rejects tenant ids outside the wire-safe alphabet (1 to
	// MaxIDLen printable non-space ASCII bytes).
	ErrBadID = errors.New("tenant: invalid tenant id")
	// ErrLimit rejects a creation when the registry is full and every
	// live tenant is referenced, so nothing can be evicted.
	ErrLimit = errors.New("tenant: tenant limit reached")
	// ErrBusy rejects an explicit Evict of a tenant with live handles.
	ErrBusy = errors.New("tenant: tenant busy")
	// ErrUnknown rejects an explicit Evict of a tenant that is not live.
	ErrUnknown = errors.New("tenant: unknown tenant")
)

// MaxIDLen bounds a tenant id: it must fit a text protocol field and a
// v2 pairs-frame header without ever dominating either.
const MaxIDLen = 128

// ValidID reports whether id is a legal tenant id: 1..MaxIDLen bytes,
// every byte printable non-space ASCII. The alphabet keeps ids safe in
// both framings (no whitespace to split a text line, no control bytes)
// and cheap to escape into store directory names.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > MaxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// validIDBytes is ValidID for the binary frame path, which holds the id
// as raw bytes and must not allocate a string just to validate it.
//
//freq:noalloc
func validIDBytes(id []byte) bool {
	if len(id) == 0 || len(id) > MaxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// SnapshotSink receives a retiring tenant's merged summary at eviction
// and drain time — the durable hand-off. The view aliases manager-owned
// state and is valid only for the duration of the call; implementations
// that keep the data must serialize it before returning (a freq/store
// Store appends it to the tenant's partition directory).
type SnapshotSink[T comparable] interface {
	AppendTenant(id string, v *freq.View[T], start, end time.Time) error
}

// Config parameterizes a Manager. The sketch fields mirror
// server.Config: every tenant is stamped from this one template.
type Config struct {
	// MaxCounters is each tenant's counter budget (default 4096) — the
	// per-tenant quota on summary memory.
	MaxCounters int
	// Shards is each tenant sketch's concurrency fan-out (default 4;
	// tenants are many, so per-tenant fan-out stays modest).
	Shards int
	// WindowIntervals, when positive, gives every tenant a sliding-
	// window twin of that many intervals alongside its all-time summary.
	WindowIntervals int
	// Seed, when nonzero, pins tenant sketch seeds deterministically
	// (varied per creation): two managers built with the same Seed that
	// create tenants in the same order hold byte-identical state after
	// identical streams — the cross-framing conformance property.
	Seed uint64
	// MaxTenants caps the live registry (default 1024). At capacity a
	// new tenant evicts the idlest unreferenced one; if every tenant is
	// referenced the creation fails with ErrLimit.
	MaxTenants int
	// IdleTTL, when positive, makes EvictIdle (and the StartEvicting
	// ticker) retire tenants untouched for this long. Zero keeps idle
	// tenants until capacity pressure evicts them.
	IdleTTL time.Duration
}

// Tenant is one live per-tenant summary, pinned by Acquire. The sketch
// handles stay valid until Release; after Release the manager may evict
// the tenant and recycle its tables at any time.
type Tenant[T comparable] struct {
	mgr *Manager[T]
	sk  *freq.Concurrent[T]
	win *freq.ConcurrentWindowed[T]

	// Registry state below; all guarded by mgr.mu — a cross-object
	// contract freqvet's epochlock analyzer cannot express (its
	// //freq:guardedBy(mu) names a sibling mutex on the same struct), so
	// it is enforced by the -race soak tests instead of the vet gate.
	// Every read or write of these fields happens inside a Manager
	// method or a Tenant method that locks t.mgr.mu first.

	id       string
	seq      uint64
	refs     int
	lastUsed int64     // unix nanos of the last Acquire or Release
	start    time.Time // when this incarnation began (sink bounds)
}

// ID returns the tenant id this handle was acquired under.
func (t *Tenant[T]) ID() string {
	t.mgr.mu.Lock()
	defer t.mgr.mu.Unlock()
	return t.id
}

// Sketch returns the tenant's all-time summary. Valid until Release.
func (t *Tenant[T]) Sketch() *freq.Concurrent[T] { return t.sk }

// Windowed returns the tenant's sliding-window twin, nil when the
// manager was configured without windows. Valid until Release.
func (t *Tenant[T]) Windowed() *freq.ConcurrentWindowed[T] { return t.win }

// Release unpins the handle. The tenant becomes evictable once its last
// handle releases; using the handle after Release is a bug.
func (t *Tenant[T]) Release() {
	m := t.mgr
	m.mu.Lock()
	t.refs--
	t.lastUsed = m.now().UnixNano()
	m.mu.Unlock()
}

// Update applies one weighted update to both of the tenant's summaries.
func (t *Tenant[T]) Update(item T, weight int64) error {
	if err := t.sk.Update(item, weight); err != nil {
		return err
	}
	if t.win != nil {
		// Validated above; the twin cannot reject it.
		_ = t.win.Update(item, weight)
	}
	return nil
}

// UpdateWeightedBatch applies one all-or-nothing weighted batch to both
// of the tenant's summaries: a bad pair rejects the whole batch with
// neither summary touched.
func (t *Tenant[T]) UpdateWeightedBatch(items []T, weights []int64) error {
	if err := t.sk.UpdateWeightedBatch(items, weights); err != nil {
		return err
	}
	if t.win != nil {
		_ = t.win.UpdateWeightedBatch(items, weights)
	}
	return nil
}

// Reset clears both of the tenant's summaries in place.
func (t *Tenant[T]) Reset() {
	t.sk.Reset()
	if t.win != nil {
		t.win.Reset()
	}
}

// Stats summarizes the registry (the server's STATS surfaces it).
type Stats struct {
	// Active and Max are the live tenant count and the registry cap;
	// Active/Max is the occupancy the STATS reply reports.
	Active, Max int
	// Pooled counts warm table sets waiting in the recycle pool.
	Pooled int
	// Created counts Acquire-driven creations (pool reuse included),
	// Evictions counts retirements (capacity, TTL, and explicit), and
	// PoolHits counts the creations served without building new tables.
	Created, Evictions, PoolHits int64
}

// Manager owns the tenant registry: the id→summary map, the warm
// recycle pool, and the eviction machinery. All methods are safe for
// concurrent use.
type Manager[T comparable] struct {
	cfg Config
	// now is the clock, injectable for TTL tests.
	now func() time.Time
	// sink receives retiring tenants' summaries; set once before
	// serving (SetSink), never swapped while live.
	sink SnapshotSink[T]

	// mu guards the registry: the tenant map, the pool, every Tenant's
	// registry fields (id, seq, refs, lastUsed, start), and the
	// counters below. Sketch contents are NOT guarded here — each
	// summary has its own synchronization — so ingest and queries on
	// acquired handles never serialize on the registry lock.
	mu sync.Mutex
	//freq:guardedBy(mu)
	tenants map[string]*Tenant[T]
	//freq:guardedBy(mu)
	pool []*Tenant[T]
	//freq:guardedBy(mu)
	seq uint64
	//freq:guardedBy(mu)
	builds uint64 // fresh table-set constructions (seed derivation)
	//freq:guardedBy(mu)
	created int64
	//freq:guardedBy(mu)
	evictions int64
	//freq:guardedBy(mu)
	poolHits int64
	//freq:guardedBy(mu)
	sinkErr error
}

// New returns a Manager stamping tenants from cfg.
func New[T comparable](cfg Config) (*Manager[T], error) {
	if cfg.MaxCounters == 0 {
		cfg.MaxCounters = 4096
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.MaxTenants == 0 {
		cfg.MaxTenants = 1024
	}
	if cfg.MaxTenants < 1 || cfg.MaxCounters < 1 {
		return nil, fmt.Errorf("tenant: MaxTenants and MaxCounters must be positive (got %d, %d)",
			cfg.MaxTenants, cfg.MaxCounters)
	}
	m := &Manager[T]{
		cfg:     cfg,
		now:     time.Now,
		tenants: make(map[string]*Tenant[T], cfg.MaxTenants),
	}
	return m, nil
}

// SetSink installs the eviction/drain persistence hook and returns m
// for chaining. Install it before serving; nil disables persistence
// (evicted tenants' summaries are dropped).
func (m *Manager[T]) SetSink(sink SnapshotSink[T]) *Manager[T] {
	m.sink = sink
	return m
}

// setClock replaces the wall clock (TTL tests).
func (m *Manager[T]) setClock(now func() time.Time) { m.now = now }

// Acquire returns the tenant for id, creating it on first use, and pins
// it against eviction until Release. At capacity the idlest
// unreferenced tenant is evicted to make room; ErrLimit when none is.
func (m *Manager[T]) Acquire(id string) (*Tenant[T], error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("%w: %q", ErrBadID, id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.tenants[id]; ok {
		t.refs++
		t.lastUsed = m.now().UnixNano()
		return t, nil
	}
	return m.createLocked(id)
}

// AcquireBytes is Acquire keyed by raw bytes — the binary frame path's
// entry point. A registry hit allocates nothing (the map lookup uses
// the compiler's string(bytes) key optimization); only a first-use
// creation materializes the id as a string.
func (m *Manager[T]) AcquireBytes(id []byte) (*Tenant[T], error) {
	if !validIDBytes(id) {
		return nil, fmt.Errorf("%w: %q", ErrBadID, id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.tenants[string(id)]; ok {
		t.refs++
		t.lastUsed = m.now().UnixNano()
		return t, nil
	}
	return m.createLocked(string(id))
}

// createLocked installs a new tenant under id: from the warm pool when
// one is available (zero-alloc churn), else freshly built from the
// template with a deterministically varied seed.
//
//freq:locked(mu)
func (m *Manager[T]) createLocked(id string) (*Tenant[T], error) {
	if len(m.tenants) >= m.cfg.MaxTenants {
		if !m.evictIdlestLocked() {
			return nil, fmt.Errorf("%w: %d live, all referenced", ErrLimit, len(m.tenants))
		}
	}
	var t *Tenant[T]
	if n := len(m.pool); n > 0 {
		t = m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
		m.poolHits++
	} else {
		var err error
		if t, err = m.buildLocked(); err != nil {
			return nil, err
		}
	}
	m.seq++
	now := m.now()
	t.id = id
	t.seq = m.seq
	t.refs = 1
	t.lastUsed = now.UnixNano()
	t.start = now
	m.tenants[id] = t
	m.created++
	return t, nil
}

// buildLocked constructs a fresh table set from the template. Seeds are
// derived from (Config.Seed, build ordinal), so twin managers that
// build in the same order agree byte for byte, and a recycled table set
// keeps its original seeds (state equality then depends only on the
// creation order, which the conformance twins share).
//
//freq:locked(mu)
func (m *Manager[T]) buildLocked() (*Tenant[T], error) {
	m.builds++
	opts := []freq.Option{freq.WithShards(m.cfg.Shards)}
	var seed uint64
	if m.cfg.Seed != 0 {
		seed = deriveSeed(m.cfg.Seed, m.builds)
		opts = append(opts, freq.WithSeed(seed))
	}
	sk, err := freq.NewConcurrent[T](m.cfg.MaxCounters, opts...)
	if err != nil {
		return nil, err
	}
	t := &Tenant[T]{mgr: m, sk: sk}
	if m.cfg.WindowIntervals > 0 {
		var wopts []freq.Option
		if seed != 0 {
			// Decorrelate the window ring from the all-time shards, the
			// same convention as the server's global pair.
			wopts = append(wopts, freq.WithSeed(seed^0x77696e646f777332))
		}
		win, err := freq.NewConcurrentWindowed[T](m.cfg.MaxCounters, m.cfg.WindowIntervals, wopts...)
		if err != nil {
			return nil, err
		}
		t.win = win
	}
	return t, nil
}

// deriveSeed scrambles (seed, i) into a per-build seed — splitmix64's
// finalizer, never returning 0 so a pinned template stays pinned.
func deriveSeed(seed, i uint64) uint64 {
	x := seed + i*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// evictIdlestLocked retires the unreferenced tenant with the oldest
// lastUsed (ties broken by creation order, so twin managers evict
// identically). It reports whether a victim existed.
//
//freq:locked(mu)
func (m *Manager[T]) evictIdlestLocked() bool {
	var victim *Tenant[T]
	for _, t := range m.tenants {
		if t.refs > 0 {
			continue
		}
		if victim == nil || t.lastUsed < victim.lastUsed ||
			(t.lastUsed == victim.lastUsed && t.seq < victim.seq) {
			victim = t
		}
	}
	if victim == nil {
		return false
	}
	m.evictLocked(victim, m.now())
	return true
}

// evictLocked retires one unreferenced tenant: persist through the sink
// (when installed and non-empty), reset both summaries in place, and
// return the warm table set to the pool. The reset is what makes churn
// alloc-free: the next creation pops fully-built, cleared tables.
//
//freq:locked(mu)
func (m *Manager[T]) evictLocked(t *Tenant[T], end time.Time) {
	if m.sink != nil {
		if v, err := t.sk.View(); err != nil {
			m.sinkErr = err
		} else if v.StreamWeight() > 0 {
			if err := m.sink.AppendTenant(t.id, v, t.start, end); err != nil {
				m.sinkErr = err
			}
		}
	}
	delete(m.tenants, t.id)
	t.id = ""
	t.sk.Reset()
	if t.win != nil {
		t.win.Reset()
	}
	m.evictions++
	if len(m.pool) < m.cfg.MaxTenants {
		m.pool = append(m.pool, t)
	}
}

// Evict explicitly retires id right now: persisted through the sink,
// tables recycled. ErrUnknown when id is not live, ErrBusy when handles
// are outstanding (the caller of an EVICT command must not hold one).
func (m *Manager[T]) Evict(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, id)
	}
	if t.refs > 0 {
		return fmt.Errorf("%w: %q has %d live handles", ErrBusy, id, t.refs)
	}
	m.evictLocked(t, m.now())
	return nil
}

// EvictIdle retires every unreferenced tenant untouched for at least
// Config.IdleTTL, in creation order, and returns how many were
// retired. A no-op (returning 0) when IdleTTL is zero.
func (m *Manager[T]) EvictIdle() int {
	if m.cfg.IdleTTL <= 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	cutoff := now.Add(-m.cfg.IdleTTL).UnixNano()
	var victims []*Tenant[T]
	for _, t := range m.tenants {
		if t.refs == 0 && t.lastUsed <= cutoff {
			victims = append(victims, t)
		}
	}
	// Deterministic order: eviction order decides pool reuse order,
	// which twin managers must share.
	sort.Slice(victims, func(i, j int) bool { return victims[i].seq < victims[j].seq })
	for _, t := range victims {
		m.evictLocked(t, now)
	}
	return len(victims)
}

// StartEvicting runs EvictIdle on a ticker every interval and returns
// an idempotent stop function — the daemon's TTL driver.
func (m *Manager[T]) StartEvicting(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				m.EvictIdle()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// RotateAll advances every live tenant's sliding window one interval —
// the daemon's per-tenant analogue of the global rotation ticker. A
// no-op when the manager was configured without windows.
func (m *Manager[T]) RotateAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.tenants {
		if t.win != nil {
			t.win.Rotate()
		}
	}
}

// StartRotating drives RotateAll on a ticker every interval and returns
// an idempotent stop function.
func (m *Manager[T]) StartRotating(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				m.RotateAll()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Drain persists every live tenant's summary through the sink with end
// as the closing bound — the SIGTERM head-slot flush. It does not evict
// or reset anything (the process is exiting); call it after the server
// has drained so no handles are in flight. Returns the first sink
// error, joined with any earlier recorded one.
func (m *Manager[T]) Drain(end time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sink == nil {
		return m.sinkErr
	}
	// Creation order, so the drain is deterministic.
	live := make([]*Tenant[T], 0, len(m.tenants))
	for _, t := range m.tenants {
		live = append(live, t)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	var firstErr error
	for _, t := range live {
		v, err := t.sk.View()
		if err == nil && v.StreamWeight() == 0 {
			continue
		}
		if err == nil {
			err = m.sink.AppendTenant(t.id, v, t.start, end)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return errors.Join(m.sinkErr, firstErr)
}

// SinkErr returns the most recent eviction-path sink failure, or nil.
// Evictions never block on a failing sink; the error is recorded here
// for the operator, mirroring ConcurrentWindowed.SinkErr.
func (m *Manager[T]) SinkErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sinkErr
}

// Len returns the live tenant count.
func (m *Manager[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tenants)
}

// Stats returns a consistent snapshot of the registry counters.
func (m *Manager[T]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Active:    len(m.tenants),
		Max:       m.cfg.MaxTenants,
		Pooled:    len(m.pool),
		Created:   m.created,
		Evictions: m.evictions,
		PoolHits:  m.poolHits,
	}
}
