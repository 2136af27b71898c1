package tenant

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/freq"
)

// captureSink records every persisted view's weight per tenant id — the
// conservation ledger for eviction-path tests.
type captureSink struct {
	mu      sync.Mutex
	weight  map[string]int64
	appends int
	fail    error
}

func (s *captureSink) AppendTenant(id string, v *freq.View[int64], start, end time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return s.fail
	}
	if s.weight == nil {
		s.weight = make(map[string]int64)
	}
	if end.Before(start) {
		return fmt.Errorf("sink: end %v before start %v", end, start)
	}
	s.weight[id] += v.StreamWeight()
	s.appends++
	return nil
}

func (s *captureSink) total(id string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.weight[id]
}

func TestAcquireCreateUpdateQuery(t *testing.T) {
	m, err := New[int64](Config{MaxCounters: 256, Shards: 2, WindowIntervals: 3, MaxTenants: 8})
	if err != nil {
		t.Fatal(err)
	}
	ten, err := m.Acquire("alice")
	if err != nil {
		t.Fatal(err)
	}
	if ten.ID() != "alice" {
		t.Fatalf("ID = %q, want alice", ten.ID())
	}
	if ten.Windowed() == nil {
		t.Fatal("WindowIntervals > 0 but Windowed() is nil")
	}
	if err := ten.Update(7, 100); err != nil {
		t.Fatal(err)
	}
	if err := ten.UpdateWeightedBatch([]int64{7, 8}, []int64{50, 25}); err != nil {
		t.Fatal(err)
	}
	if got := ten.Sketch().StreamWeight(); got != 175 {
		t.Fatalf("StreamWeight = %d, want 175", got)
	}
	if got := ten.Windowed().StreamWeight(); got != 175 {
		t.Fatalf("windowed StreamWeight = %d, want 175 (twin must mirror)", got)
	}
	// Bad batch is all-or-nothing on both summaries.
	if err := ten.UpdateWeightedBatch([]int64{1, 2}, []int64{5, -5}); err == nil {
		t.Fatal("negative weight batch accepted")
	}
	if got := ten.Sketch().StreamWeight(); got != 175 {
		t.Fatalf("StreamWeight after rejected batch = %d, want 175", got)
	}
	if got := ten.Windowed().StreamWeight(); got != 175 {
		t.Fatalf("windowed StreamWeight after rejected batch = %d, want 175", got)
	}
	ten.Release()

	// Second acquire is a registry hit, not a second creation.
	ten2, err := m.Acquire("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got := ten2.Sketch().StreamWeight(); got != 175 {
		t.Fatalf("re-acquired StreamWeight = %d, want 175", got)
	}
	ten2.Release()
	if st := m.Stats(); st.Created != 1 || st.Active != 1 {
		t.Fatalf("Stats = %+v, want Created=1 Active=1", st)
	}
}

func TestValidID(t *testing.T) {
	good := []string{"a", "tenant-1", "UPPER.lower_0", "%", "~", "!"}
	for _, id := range good {
		if !ValidID(id) {
			t.Errorf("ValidID(%q) = false, want true", id)
		}
	}
	long := make([]byte, MaxIDLen)
	for i := range long {
		long[i] = 'a'
	}
	if !ValidID(string(long)) {
		t.Error("max-length id rejected")
	}
	bad := []string{"", string(long) + "a", "has space", "tab\there", "nl\n", "ctrl\x01", "utfé"}
	for _, id := range bad {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true, want false", id)
		}
	}
	if _, err := New[int64](Config{}); err != nil {
		t.Fatal(err)
	}
	m, _ := New[int64](Config{})
	if _, err := m.Acquire("has space"); !errors.Is(err, ErrBadID) {
		t.Fatalf("Acquire bad id: err = %v, want ErrBadID", err)
	}
	if _, err := m.AcquireBytes([]byte("has space")); !errors.Is(err, ErrBadID) {
		t.Fatalf("AcquireBytes bad id: err = %v, want ErrBadID", err)
	}
}

func TestEvictExplicit(t *testing.T) {
	sink := &captureSink{}
	m, err := New[int64](Config{MaxCounters: 128, MaxTenants: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.SetSink(sink)

	if err := m.Evict("ghost"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Evict unknown: err = %v, want ErrUnknown", err)
	}
	ten, err := m.Acquire("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := ten.Update(1, 42); err != nil {
		t.Fatal(err)
	}
	// A held handle blocks eviction.
	if err := m.Evict("bob"); !errors.Is(err, ErrBusy) {
		t.Fatalf("Evict held: err = %v, want ErrBusy", err)
	}
	ten.Release()
	if err := m.Evict("bob"); err != nil {
		t.Fatal(err)
	}
	if got := sink.total("bob"); got != 42 {
		t.Fatalf("sink captured %d for bob, want 42", got)
	}
	if st := m.Stats(); st.Active != 0 || st.Evictions != 1 || st.Pooled != 1 {
		t.Fatalf("Stats after evict = %+v, want Active=0 Evictions=1 Pooled=1", st)
	}
	// Re-acquire reuses the pooled tables and starts empty.
	ten2, err := m.Acquire("bob")
	if err != nil {
		t.Fatal(err)
	}
	defer ten2.Release()
	if got := ten2.Sketch().StreamWeight(); got != 0 {
		t.Fatalf("recycled tenant StreamWeight = %d, want 0", got)
	}
	if st := m.Stats(); st.PoolHits != 1 {
		t.Fatalf("Stats = %+v, want PoolHits=1", st)
	}
}

func TestCapacityEvictsIdlest(t *testing.T) {
	sink := &captureSink{}
	m, err := New[int64](Config{MaxCounters: 128, MaxTenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.SetSink(sink)
	clock := time.Unix(1_700_000_000, 0)
	m.setClock(func() time.Time { return clock })

	a, _ := m.Acquire("a")
	_ = a.Update(1, 10)
	a.Release()
	clock = clock.Add(time.Second)
	b, _ := m.Acquire("b")
	_ = b.Update(1, 20)
	b.Release()
	clock = clock.Add(time.Second)

	// Registry is full; "a" is idlest and unreferenced — creating "c"
	// evicts it through the sink.
	c, err := m.Acquire("c")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if got := sink.total("a"); got != 10 {
		t.Fatalf("sink captured %d for a, want 10", got)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	// Hold both live tenants: the registry is full of referenced
	// tenants, so a fourth id cannot be admitted.
	bb, err := m.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	defer bb.Release()
	if _, err := m.Acquire("d"); !errors.Is(err, ErrLimit) {
		t.Fatalf("Acquire at referenced capacity: err = %v, want ErrLimit", err)
	}
}

func TestIdleTTLEviction(t *testing.T) {
	sink := &captureSink{}
	m, err := New[int64](Config{MaxCounters: 128, MaxTenants: 8, IdleTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	m.SetSink(sink)
	clock := time.Unix(1_700_000_000, 0)
	m.setClock(func() time.Time { return clock })

	for i, id := range []string{"x", "y"} {
		ten, err := m.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		_ = ten.Update(int64(i), int64(100*(i+1)))
		ten.Release()
	}
	// Keep "z" fresh and "x"/"y" stale.
	clock = clock.Add(2 * time.Minute)
	z, _ := m.Acquire("z")
	_ = z.Update(9, 1)
	z.Release()
	if n := m.EvictIdle(); n != 2 {
		t.Fatalf("EvictIdle = %d, want 2", n)
	}
	if got := sink.total("x"); got != 100 {
		t.Fatalf("sink captured %d for x, want 100", got)
	}
	if got := sink.total("y"); got != 200 {
		t.Fatalf("sink captured %d for y, want 200", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len after TTL sweep = %d, want 1 (z survives)", m.Len())
	}
	// TTL disabled → sweep is a no-op.
	m2, _ := New[int64](Config{MaxTenants: 2})
	ten, _ := m2.Acquire("q")
	ten.Release()
	if n := m2.EvictIdle(); n != 0 {
		t.Fatalf("EvictIdle without TTL = %d, want 0", n)
	}
}

func TestDrainPersistsLiveTenants(t *testing.T) {
	sink := &captureSink{}
	m, err := New[int64](Config{MaxCounters: 128, MaxTenants: 8})
	if err != nil {
		t.Fatal(err)
	}
	m.SetSink(sink)
	for i := 0; i < 3; i++ {
		ten, err := m.Acquire(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		_ = ten.Update(int64(i), int64(i+1)*10)
		ten.Release()
	}
	// An empty tenant drains nothing.
	empty, _ := m.Acquire("empty")
	empty.Release()
	if err := m.Drain(time.Now()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("t%d", i)
		if got, want := sink.total(id), int64(i+1)*10; got != want {
			t.Fatalf("drained %d for %s, want %d", got, id, want)
		}
	}
	if sink.appends != 3 {
		t.Fatalf("sink saw %d appends, want 3 (empty tenant skipped)", sink.appends)
	}
	// Drain does not evict: the registry is intact for the final log line.
	if m.Len() != 4 {
		t.Fatalf("Len after drain = %d, want 4", m.Len())
	}
}

func TestSinkErrRecordedNotFatal(t *testing.T) {
	sink := &captureSink{fail: errors.New("disk full")}
	m, err := New[int64](Config{MaxCounters: 128, MaxTenants: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.SetSink(sink)
	ten, _ := m.Acquire("a")
	_ = ten.Update(1, 1)
	ten.Release()
	if err := m.Evict("a"); err != nil {
		t.Fatalf("Evict must not fail on sink error, got %v", err)
	}
	if err := m.SinkErr(); err == nil || err.Error() != "disk full" {
		t.Fatalf("SinkErr = %v, want disk full", err)
	}
	if m.Len() != 0 {
		t.Fatal("tenant not evicted despite failing sink")
	}
}

func TestSeededTwinsAgreeByteForByte(t *testing.T) {
	mk := func() *Manager[int64] {
		m, err := New[int64](Config{MaxCounters: 256, Shards: 4, Seed: 0xfeed, MaxTenants: 4})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	ops := func(m *Manager[int64]) []byte {
		for _, id := range []string{"p", "q"} {
			ten, err := m.Acquire(id)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 500; i++ {
				_ = ten.Update(i%37, i+1)
			}
			ten.Release()
		}
		ten, _ := m.Acquire("p")
		defer ten.Release()
		v, err := ten.Sketch().View()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := v.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	ba, bb := ops(a), ops(b)
	if string(ba) != string(bb) {
		t.Fatal("seed-pinned twin managers diverged after identical streams")
	}
}

// TestTenantChurnZeroAlloc is the warm-pool acceptance gate: once the
// pool is primed, a full evict→recreate→ingest cycle allocates nothing.
func TestTenantChurnZeroAlloc(t *testing.T) {
	m, err := New[int64](Config{MaxCounters: 512, Shards: 2, WindowIntervals: 2, MaxTenants: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Prime: one build, one eviction leaves warm tables in the pool.
	ten, err := m.Acquire("churn")
	if err != nil {
		t.Fatal(err)
	}
	_ = ten.Update(1, 1)
	ten.Release()
	if err := m.Evict("churn"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		ten, err := m.Acquire("churn")
		if err != nil {
			t.Fatal(err)
		}
		_ = ten.Update(42, 3)
		ten.Release()
		if err := m.Evict("churn"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("evict→recreate cycle allocates %.1f/op, want 0 (warm pool must recycle)", allocs)
	}
	st := m.Stats()
	if st.PoolHits == 0 {
		t.Fatalf("Stats = %+v: churn loop never hit the warm pool", st)
	}
}

// TestTenantSoakWeightConservation is the acceptance soak: N tenants ×
// concurrent writers × an eviction ticker × scoped TOPK readers, under
// -race. Every unit of successfully acknowledged weight must end up
// either in the tenant's live summary or in the sink's ledger — exact
// conservation, no leakage across recycled tables.
func TestTenantSoakWeightConservation(t *testing.T) {
	const (
		nTenants = 8
		nWriters = 4
		nReaders = 2
		perGoal  = 4000
	)
	sink := &captureSink{}
	m, err := New[int64](Config{MaxCounters: 256, Shards: 2, WindowIntervals: 2, MaxTenants: nTenants})
	if err != nil {
		t.Fatal(err)
	}
	m.SetSink(sink)

	ids := make([]string, nTenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("soak-%d", i)
	}
	var written [nTenants]atomic.Int64
	var writers, loopers sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < nWriters; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < perGoal; n++ {
				idx := rng.Intn(nTenants)
				ten, err := m.Acquire(ids[idx])
				if err != nil {
					t.Error(err)
					return
				}
				weight := int64(rng.Intn(9) + 1)
				if err := ten.Update(rng.Int63n(64), weight); err != nil {
					ten.Release()
					t.Error(err)
					return
				}
				// The handle is still held, so this weight cannot be
				// recycled out from under the ledger before Release.
				written[idx].Add(weight)
				ten.Release()
			}
		}(int64(w) + 1)
	}
	for r := 0; r < nReaders; r++ {
		loopers.Add(1)
		go func(seed int64) {
			defer loopers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ten, err := m.Acquire(ids[rng.Intn(nTenants)])
				if err != nil {
					t.Error(err)
					return
				}
				v, err := ten.Sketch().View()
				if err == nil {
					_ = v.Query().Limit(5).Collect()
				}
				if win := ten.Windowed(); win != nil {
					_ = win.Query().Limit(3).Collect()
				}
				ten.Release()
			}
		}(int64(r) + 100)
	}
	// The eviction ticker: random explicit evictions racing the
	// writers. ErrBusy and ErrUnknown are the expected steady state.
	loopers.Add(1)
	go func() {
		defer loopers.Done()
		rng := rand.New(rand.NewSource(999))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Evict(ids[rng.Intn(nTenants)]); err != nil &&
				!errors.Is(err, ErrBusy) && !errors.Is(err, ErrUnknown) {
				t.Error(err)
				return
			}
			m.RotateAll()
		}
	}()

	// Writers run a fixed workload; the readers and the eviction ticker
	// loop until told to stop.
	writers.Wait()
	close(stop)
	loopers.Wait()

	// Flush everything through the sink and settle the ledger.
	if err := m.SinkErr(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := m.Evict(id); err != nil && !errors.Is(err, ErrUnknown) {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		if got, want := sink.total(id), written[i].Load(); got != want {
			t.Fatalf("tenant %s: conserved %d, wrote %d (leak or cross-tenant bleed)", id, got, want)
		}
	}
	st := m.Stats()
	if st.Active != 0 {
		t.Fatalf("Stats after final sweep = %+v, want Active=0", st)
	}
	t.Logf("soak: created=%d evictions=%d poolHits=%d appends=%d",
		st.Created, st.Evictions, st.PoolHits, sink.appends)
}

func TestStartEvictingAndRotating(t *testing.T) {
	m, err := New[int64](Config{MaxCounters: 64, WindowIntervals: 2, MaxTenants: 4, IdleTTL: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ten, _ := m.Acquire("tick")
	_ = ten.Update(1, 1)
	ten.Release()
	stopEvict := m.StartEvicting(time.Millisecond)
	defer stopEvict()
	deadline := time.Now().Add(2 * time.Second)
	for m.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("TTL ticker never evicted the idle tenant")
		}
		time.Sleep(time.Millisecond)
	}
	stopEvict()
	stopEvict() // idempotent

	ten2, _ := m.Acquire("rot")
	defer ten2.Release()
	_ = ten2.Update(1, 5)
	stopRot := m.StartRotating(time.Millisecond)
	defer stopRot()
	deadline = time.Now().Add(2 * time.Second)
	for ten2.Windowed().Rotations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rotation ticker never advanced the tenant window")
		}
		time.Sleep(time.Millisecond)
	}
	stopRot()
	stopRot()
}
