package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/freq"
	"repro/freq/store"
	"repro/freq/tenant"
)

// newTestManager builds a tenant manager with small test geometry.
func newTestManager(t *testing.T, cfg tenant.Config) *tenant.Manager[int64] {
	t.Helper()
	if cfg.MaxCounters == 0 {
		cfg.MaxCounters = 256
	}
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	mgr, err := tenant.New[int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

func TestTenantTextCommands(t *testing.T) {
	srv := startServer(t, Config{
		MaxCounters: 512, Shards: 2,
		Tenants: newTestManager(t, tenant.Config{WindowIntervals: 4}),
	})
	c := dial(t, srv)

	alice, err := c.Tenant("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := c.Tenant("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Update(7, 100); err != nil {
		t.Fatal(err)
	}
	if err := alice.UpdateBatch([]int64{7, 9}, []int64{50, 25}); err != nil {
		t.Fatal(err)
	}
	if err := bob.Update(7, 1); err != nil {
		t.Fatal(err)
	}

	// Isolation: alice's weight never bleeds into bob or the global
	// summary.
	est, lb, ub, err := alice.Query(7)
	if err != nil || est != 150 || lb != 150 || ub != 150 {
		t.Fatalf("alice Query(7) = %d [%d, %d], %v; want 150 exact", est, lb, ub, err)
	}
	if est, _, _, _ := bob.Query(7); est != 1 {
		t.Fatalf("bob Query(7) = %d, want 1", est)
	}
	if est, _, _, _ := c.Query(7); est != 0 {
		t.Fatalf("global Query(7) = %d, want 0 (tenant traffic must not hit the global summary)", est)
	}

	rows, err := alice.TopK(2)
	if err != nil || len(rows) != 2 || rows[0].Item != 7 || rows[0].Estimate != 150 {
		t.Fatalf("alice TopK(2) = %v, %v", rows, err)
	}
	if rows, err := alice.FrequentItemsAboveThreshold(100, freq.NoFalseNegatives); err != nil || len(rows) != 1 {
		t.Fatalf("alice FI(100) = %v, %v; want exactly item 7", rows, err)
	}
	if rows, err := alice.HeavyHitters(0.5); err != nil || len(rows) != 1 || rows[0].Item != 7 {
		t.Fatalf("alice HH(0.5) = %v, %v", rows, err)
	}
	n, maxErr, err := alice.Stats()
	if err != nil || n != 175 || maxErr != 0 {
		t.Fatalf("alice Stats = %d, %d, %v; want 175, 0", n, maxErr, err)
	}
	sk, err := alice.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.Estimate(7); got != 150 {
		t.Fatalf("alice snapshot Estimate(7) = %d, want 150", got)
	}

	// Window commands run against the tenant's own windowed twin.
	if _, err := alice.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := alice.Update(7, 5); err != nil {
		t.Fatal(err)
	}
	if est, _, _, err := alice.Window(1).Query(7); err != nil || est != 5 {
		t.Fatalf("alice Window(1).Query(7) = %d, %v; want 5", est, err)
	}

	if err := alice.Reset(); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := alice.Stats(); n != 0 {
		t.Fatalf("alice weight after RESET = %d, want 0", n)
	}
	// Bob is untouched by alice's reset.
	if est, _, _, _ := bob.Query(7); est != 1 {
		t.Fatal("alice RESET bled into bob")
	}
}

func TestTenantErrors(t *testing.T) {
	srv := startServer(t, Config{
		MaxCounters: 512, Shards: 2,
		Tenants: newTestManager(t, tenant.Config{MaxTenants: 2}),
	})
	c := dial(t, srv)

	for _, tc := range []struct{ line, want string }{
		{"TENANT", "usage:"},
		{"TENANT alice", "usage:"},
		{"TENANT alice BOGUS", "unknown tenant command"},
		{"TENANT alice U 1", "usage:"},
		{"TENANT alice U x y", "bad integer"},
		{"TENANT alice EVICT extra", "usage:"},
		{"TENANT " + strings.Repeat("x", 129) + " U 1 1", "tenant id"},
		{"TENANT bad\x01id U 1 1", "tenant id"},
	} {
		if _, err := c.Raw(tc.line); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want substring %q", tc.line, err, tc.want)
		}
		// The connection survives every rejection.
		if err := c.Update(1, 1); err != nil {
			t.Fatalf("connection desynchronized after %q: %v", tc.line, err)
		}
	}

	// Evicting a tenant that does not exist is an error, not a silent OK.
	if _, err := c.Raw("TENANT ghost EVICT"); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("EVICT ghost: %v, want unknown tenant", err)
	}

	// Registry capacity with no idle victims (both tenants just used,
	// and capacity eviction picks the idlest — here creation succeeds by
	// evicting, so instead check the WIN path without a window).
	if _, err := c.Raw("TENANT alice WIN 1 EST 1"); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("tenant WIN without window: %v", err)
	}
	if _, err := c.Raw("TENANT alice RANGE 0 1 EST 1"); err == nil || !strings.Contains(err.Error(), "no store configured") {
		t.Fatalf("tenant RANGE without store: %v", err)
	}

	// A server without a manager rejects every TENANT command.
	bare := startServer(t, Config{MaxCounters: 128, Shards: 1})
	bc := dial(t, bare)
	if _, err := bc.Raw("TENANT alice U 1 1"); err == nil || !strings.Contains(err.Error(), "no tenants configured") {
		t.Fatalf("TENANT without manager: %v", err)
	}
}

func TestTenantBinaryV2(t *testing.T) {
	srv := startServer(t, Config{
		MaxCounters: 512, Shards: 2,
		Tenants: newTestManager(t, tenant.Config{}),
	})
	c, err := Dial[int64](srv.addr, WithBinary())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Binary() || c.BinaryVersion() != 2 {
		t.Fatalf("negotiated framing: bin=%v ver=%d, want BIN 2", c.Binary(), c.BinaryVersion())
	}

	alice, err := c.Tenant("alice")
	if err != nil {
		t.Fatal(err)
	}
	items := make([]int64, 1000)
	weights := make([]int64, 1000)
	var want int64
	for i := range items {
		items[i] = int64(i % 13)
		weights[i] = int64(i%7 + 1)
		want += weights[i]
	}
	// Tenant-scoped batch travels as one v2 pairs frame.
	if err := alice.UpdateBatch(items, weights); err != nil {
		t.Fatal(err)
	}
	// Global batch on the same connection: id-length 0 prefix.
	if err := c.UpdateBatch([]int64{99}, []int64{42}); err != nil {
		t.Fatal(err)
	}
	n, _, err := alice.Stats()
	if err != nil || n != want {
		t.Fatalf("alice weight = %d, %v; want %d", n, err, want)
	}
	if est, _, _, _ := c.Query(99); est != 42 {
		t.Fatal("global batch misrouted")
	}
	if est, _, _, _ := alice.Query(99); est != 0 {
		t.Fatal("global batch bled into tenant")
	}
	// Command frames carry tenant commands too.
	if err := alice.Update(5001, 5); err != nil {
		t.Fatal(err)
	}
	// TENANT UB inside a CMD frame is a framing violation: rejected, and
	// the connection survives.
	if _, err := c.Raw("TENANT alice UB 1"); err == nil || !strings.Contains(err.Error(), "text-framing only") {
		t.Fatalf("TENANT UB over binary: %v", err)
	}
	if est, _, _, err := alice.Query(5001); err != nil || est != 5 {
		t.Fatalf("connection unusable after rejected TENANT UB: %d, %v", est, err)
	}
}

func TestTenantBinaryV1Fallback(t *testing.T) {
	srv := startServer(t, Config{
		MaxCounters: 512, Shards: 2,
		Tenants: newTestManager(t, tenant.Config{}),
	})
	c := dial(t, srv)
	// Pin the connection to BIN 1 by negotiating it explicitly — the
	// degraded path a v2-unaware build would land on.
	resp, err := c.Raw("HELLO BIN 1")
	if err != nil || resp != "HELLO BIN 1" {
		t.Fatalf("HELLO BIN 1: %q, %v", resp, err)
	}
	c.bin, c.binVer = true, 1

	alice, err := c.Tenant("alice")
	if err != nil {
		t.Fatal(err)
	}
	// v1 pairs frames carry no tenant id, so a tenant batch degrades to
	// per-update command frames — slower, never wrong.
	if err := alice.UpdateBatch([]int64{1, 2, 3}, []int64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if n, _, err := alice.Stats(); err != nil || n != 60 {
		t.Fatalf("alice weight over BIN 1 = %d, %v; want 60", n, err)
	}
	// The global batch path still uses bare v1 pairs frames.
	if err := c.UpdateBatch([]int64{8}, []int64{80}); err != nil {
		t.Fatal(err)
	}
	if est, _, _, _ := c.Query(8); est != 80 {
		t.Fatal("global v1 batch lost")
	}
}

// TestStatsReplyShape locks the exact reply strings of both STATS
// scopes: collectors parse these positionally, so a field reorder or
// rename is a wire-protocol break, not a cosmetic change. This is the
// regression lock for the satellite fix (slots and partitions joined
// the global reply alongside the tenant fields).
func TestStatsReplyShape(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open[int64](dir, store.WithPartitionDuration(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := time.Unix(1_700_000_000, 0)
	v := freq.NewView(mustSketch(t, map[int64]int64{1: 5}))
	if err := st.AppendSlot(v, base, base.Add(time.Second)); err != nil {
		t.Fatal(err)
	}

	mgr := newTestManager(t, tenant.Config{MaxTenants: 8, WindowIntervals: 3})
	srv := startServer(t, Config{
		MaxCounters: 512, Shards: 2, WindowIntervals: 6,
		Store:   st,
		Tenants: mgr,
	})
	c := dial(t, srv)
	if err := c.Update(1, 9); err != nil {
		t.Fatal(err)
	}
	alice, err := c.Tenant("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Update(2, 4); err != nil {
		t.Fatal(err)
	}

	resp, err := c.Raw("STATS")
	if err != nil {
		t.Fatal(err)
	}
	want := "STATS n=9 err=0 shards=2 slots=6 partitions=1 tenants=1 tenants_max=8 tenant_evictions=0"
	if resp != want {
		t.Fatalf("global STATS = %q\nwant          %q", resp, want)
	}
	resp, err = c.Raw("TENANT alice STATS")
	if err != nil {
		t.Fatal(err)
	}
	if want := "STATS n=4 err=0 shards=2 slots=3"; resp != want {
		t.Fatalf("tenant STATS = %q, want %q", resp, want)
	}

	// The evictions counter is live: evicting alice bumps it and drops
	// the occupancy.
	if err := alice.Evict(); err != nil {
		t.Fatal(err)
	}
	full, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if full.Tenants != 0 || full.TenantEvictions != 1 || full.TenantsMax != 8 ||
		full.WindowSlots != 6 || full.StorePartitions != 1 || full.N != 9 {
		t.Fatalf("StatsFull after evict = %+v", full)
	}
}

func mustSketch(t *testing.T, pairs map[int64]int64) *freq.Sketch[int64] {
	t.Helper()
	sk, err := freq.New[int64](64)
	if err != nil {
		t.Fatal(err)
	}
	for item, w := range pairs {
		if err := sk.Update(item, w); err != nil {
			t.Fatal(err)
		}
	}
	return sk
}

// TestTenantEvictionPersistsToStore drives the full durability loop
// over the wire: ingest for a tenant, evict it (snapshot flushes
// through the manager's sink into the per-tenant store partition),
// ingest again into the fresh recycled tables, and read history back
// with TENANT RANGE — which must see the pre-eviction weight.
func TestTenantEvictionPersistsToStore(t *testing.T) {
	st, err := store.Open[int64](t.TempDir(), store.WithPartitionDuration(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mgr := newTestManager(t, tenant.Config{}).SetSink(st)
	srv := startServer(t, Config{
		MaxCounters: 512, Shards: 2,
		Store:   st,
		Tenants: mgr,
	})
	c := dial(t, srv)
	alice, err := c.Tenant("alice")
	if err != nil {
		t.Fatal(err)
	}
	from := time.Now().Add(-time.Hour)
	to := time.Now().Add(time.Hour)

	if err := alice.UpdateBatch([]int64{7, 9}, []int64{100, 11}); err != nil {
		t.Fatal(err)
	}
	if err := alice.Evict(); err != nil {
		t.Fatal(err)
	}
	// Live summary is gone; history survives in the store.
	if n, _, err := alice.Stats(); err != nil || n != 0 {
		t.Fatalf("live weight after evict = %d, %v; want 0", n, err)
	}
	if est, _, _, err := alice.Range(from, to).Query(7); err != nil || est != 100 {
		t.Fatalf("RANGE EST(7) after evict = %d, %v; want 100", est, err)
	}

	// Second life: new live weight, and RANGE after a second eviction
	// accumulates both generations.
	if err := alice.Update(7, 50); err != nil {
		t.Fatal(err)
	}
	if err := alice.Evict(); err != nil {
		t.Fatal(err)
	}
	if est, _, _, err := alice.Range(from, to).Query(7); err != nil || est != 150 {
		t.Fatalf("RANGE EST(7) after two generations = %d, %v; want 150", est, err)
	}
	rows, err := alice.Range(from, to).TopK(1)
	if err != nil || len(rows) != 1 || rows[0].Item != 7 {
		t.Fatalf("Range.TopK = %v, %v", rows, err)
	}
	if sk, err := alice.Range(from, to).Snapshot(); err != nil || sk.Estimate(9) != 11 {
		t.Fatalf("Range.Snapshot: %v (est9=%v)", err, sk)
	}
	// Another tenant's range view is empty: partitions are scoped.
	bob, err := c.Tenant("bob")
	if err != nil {
		t.Fatal(err)
	}
	if est, _, _, err := bob.Range(from, to).Query(7); err != nil || est != 0 {
		t.Fatalf("bob RANGE EST(7) = %d, %v; want 0", est, err)
	}
	if mgr.SinkErr() != nil {
		t.Fatalf("sink error: %v", mgr.SinkErr())
	}
}

// TestClusterRefreshTenant fans a tenant-scoped refresh across two
// nodes and checks the merged view sums the tenant's per-node weight
// while excluding other tenants and the global summaries.
func TestClusterRefreshTenant(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := startServer(t, Config{
			MaxCounters: 512, Shards: 2,
			Tenants: newTestManager(t, tenant.Config{}),
		})
		c := dial(t, srv)
		alice, err := c.Tenant("alice")
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.Update(7, int64(100*(i+1))); err != nil {
			t.Fatal(err)
		}
		other, err := c.Tenant(fmt.Sprintf("other%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := other.Update(7, 1000); err != nil {
			t.Fatal(err)
		}
		if err := c.Update(7, 5000); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, srv.addr)
	}
	cl, err := DialCluster[int64](addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.RefreshTenant("alice"); err != nil {
		t.Fatal(err)
	}
	if got := cl.Estimate(7); got != 300 {
		t.Fatalf("cluster tenant Estimate(7) = %d, want 300 (100 + 200, no bleed)", got)
	}
	if err := cl.RefreshTenant("bad\x7fid\x00"); err == nil {
		t.Fatal("RefreshTenant accepted an invalid id")
	}
}
