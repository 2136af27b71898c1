package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/freq"
)

func tenantView(t *testing.T, pairs map[int64]int64) *freq.View[int64] {
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
	return freq.NewView(sk)
}

func TestTenantsAppendQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open[int64](dir, WithPartitionDuration(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	if err := st.AppendTenant("alice", tenantView(t, map[int64]int64{7: 100}), base, base.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendTenant("alice", tenantView(t, map[int64]int64{7: 50, 9: 25}), base.Add(time.Second), base.Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendTenant("bob", tenantView(t, map[int64]int64{7: 1}), base, base.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	sk, err := st.QueryTenantInto("alice", nil, base, base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.Estimate(7); got != 150 {
		t.Fatalf("alice Estimate(7) = %d, want 150 (bob's weight must not bleed in)", got)
	}
	if got := sk.Estimate(9); got != 25 {
		t.Fatalf("alice Estimate(9) = %d, want 25", got)
	}
	// Recycling contract: passing the result back clears and reuses it.
	sk2, err := st.QueryTenantInto("bob", sk, base, base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if got := sk2.Estimate(7); got != 1 {
		t.Fatalf("bob Estimate(7) = %d, want 1", got)
	}
	// Tenant slots stay out of the default history.
	if got := st.PartitionCount(); got != 0 {
		t.Fatalf("default PartitionCount = %d after tenant-only appends, want 0", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent close; a closed store rejects tenant work too.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendTenant("alice", tenantView(t, map[int64]int64{1: 1}), base, base.Add(time.Second)); err != ErrClosed {
		t.Fatalf("append after close: err = %v, want ErrClosed", err)
	}
	if _, err := st.QueryTenantInto("alice", nil, base, base.Add(time.Hour)); err != ErrClosed {
		t.Fatalf("query after close: err = %v, want ErrClosed", err)
	}

	// Reopen: history survives per tenant.
	st2, err := Open[int64](dir, WithPartitionDuration(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sk3, err := st2.QueryTenantInto("alice", nil, base, base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if got := sk3.Estimate(7); got != 150 {
		t.Fatalf("reopened alice Estimate(7) = %d, want 150", got)
	}
}

func TestTenantsUnknownTenantAnswersEmpty(t *testing.T) {
	dir := t.TempDir()
	st, err := Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := time.Unix(1_700_000_000, 0)
	// nil dst: a fresh minimal accumulator, no error, and — critically —
	// no directory littered for a tenant that never persisted anything.
	sk, err := st.QueryTenantInto("ghost", nil, base, base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if sk == nil || sk.StreamWeight() != 0 {
		t.Fatalf("unknown tenant query: sk=%v, want empty sketch", sk)
	}
	// Reused dst: cleared in place.
	if err := sk.Update(1, 5); err != nil {
		t.Fatal(err)
	}
	sk, err = st.QueryTenantInto("ghost", sk, base, base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if sk.StreamWeight() != 0 {
		t.Fatal("unknown tenant query must clear the reused accumulator")
	}
	if _, err := os.Stat(filepath.Join(dir, tenantsDir)); !os.IsNotExist(err) {
		t.Fatalf("query littered the store root with %s/: stat err = %v", tenantsDir, err)
	}
}

func TestTenantsLRUBoundsOpenStores(t *testing.T) {
	st, err := Open[int64](t.TempDir(), WithPartitionDuration(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.tmu.Lock()
	st.maxOpen = 2
	st.tmu.Unlock()
	base := time.Unix(1_700_000_000, 0)
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := st.AppendTenant(id, tenantView(t, map[int64]int64{3: 7}), base, base.Add(time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	st.tmu.Lock()
	open := len(st.tenants)
	st.tmu.Unlock()
	if open > 2 {
		t.Fatalf("%d tenant histories open, want <= 2", open)
	}
	// An LRU-closed tenant reopens transparently with its history intact.
	sk, err := st.QueryTenantInto("a", nil, base, base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.Estimate(3); got != 7 {
		t.Fatalf("reopened LRU-evicted tenant Estimate(3) = %d, want 7", got)
	}
}

func TestTenantIDEscaping(t *testing.T) {
	cases := map[string]string{
		"plain":      "plain",
		"has.dot":    "has.dot",
		".leading":   "%2Eleading",
		"..":         "%2E.",
		"pct%20":     "pct%2520",
		"mixed/Id:1": "mixed%2FId%3A1",
		"~":          "%7E",
	}
	for id, want := range cases {
		if got := escapeTenantID(id); got != want {
			t.Errorf("escapeTenantID(%q) = %q, want %q", id, got, want)
		}
	}
	// An appended id lands in exactly its escaped directory.
	dir := t.TempDir()
	st, err := Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := time.Unix(1_700_000_000, 0)
	if err := st.AppendTenant("mixed/Id:1", tenantView(t, map[int64]int64{1: 1}), base, base.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, tenantsDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "mixed%2FId%3A1" || !ents[0].IsDir() {
		t.Fatalf("tenant directories = %v, want the single directory mixed%%2FId%%3A1", ents)
	}
}

// TestTenantsBesideGlobalStore locks the on-disk layout: the default
// history's partitions sit in the store root and each tenant's in
// tenants/<escaped-id>/, and reopening the root neither adopts nor
// removes the tenant subtree.
func TestTenantsBesideGlobalStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open[int64](dir, WithPartitionDuration(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	if err := st.AppendSlot(tenantView(t, map[int64]int64{1: 10}), base, base.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendTenant("alice", tenantView(t, map[int64]int64{2: 20}), base, base.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{dir, filepath.Join(dir, tenantsDir, "alice")} {
		parts, err := filepath.Glob(filepath.Join(d, "part-*"+partSuffix))
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != 1 {
			t.Fatalf("%s holds partitions %v, want exactly one", d, parts)
		}
	}

	st2, err := Open[int64](dir, WithPartitionDuration(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, c := range []struct {
		id   string
		item int64
		want int64
	}{{"", 1, 10}, {"alice", 2, 20}} {
		sk, err := st2.QueryTenantInto(c.id, nil, base, base.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if got := sk.Estimate(c.item); got != c.want || sk.StreamWeight() != c.want {
			t.Fatalf("history %q after reopen: Estimate(%d) = %d, weight %d; want %d alone",
				c.id, c.item, got, sk.StreamWeight(), c.want)
		}
	}
}

// TestConcurrentDefaultAndTenantAppends appends to the default history
// and to a tenant history at once through one LZ codec instance. The
// two histories append under separate locks, so under -race this pins
// that the codec's match table is guarded, and afterwards that neither
// history lost or gained a slot.
func TestConcurrentDefaultAndTenantAppends(t *testing.T) {
	st, err := Open[int64](t.TempDir(), WithPartitionDuration(time.Minute), WithCodec(NewLZ()))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	weights := map[int64]int64{}
	for i := int64(0); i < 48; i++ {
		weights[i] = 3
	}
	const slots = 40
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, id := range []string{"", "alice"} {
		v := tenantView(t, weights)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range slots {
				start := base.Add(time.Duration(i) * time.Second)
				if err := st.AppendTenant(id, v, start, start.Add(time.Second)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, id := range []string{"", "alice"} {
		sk, err := st.QueryTenantInto(id, nil, base, base.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sk.StreamWeight(), int64(slots*48*3); got != want {
			t.Fatalf("history %q weight = %d, want %d", id, got, want)
		}
	}
}

// TestTenantHistoriesShareDecodePool: tenant histories decode on the
// default history's workers instead of starting their own, so 64 open
// tenant histories add no goroutines, and their ranges fan out over
// that pool with exact answers.
func TestTenantHistoriesShareDecodePool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	st, err := Open[int64](t.TempDir(), WithPartitionDuration(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := runtime.NumGoroutine()
	t0 := time.Unix(1_700_000_000, 0)
	const tenants, parts = 64, 3
	for i := range tenants {
		for p := range parts { // one partition per minute: queries fan out
			start := t0.Add(time.Duration(p) * time.Minute)
			v := tenantView(t, map[int64]int64{7: int64(i + 1), int64(100 + p): 10})
			if err := st.AppendTenant(fmt.Sprintf("t%02d", i), v, start, start.Add(time.Second)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range tenants {
		sk, err := st.QueryTenantInto(fmt.Sprintf("t%02d", i), nil, t0, t0.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sk.Estimate(7), int64(parts*(i+1)); got != want || sk.Estimate(101) != 10 {
			t.Fatalf("tenant %d: Estimate(7) = %d, Estimate(101) = %d, want %d and 10", i, got, sk.Estimate(101), want)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew > 2 {
		t.Fatalf("%d open tenant histories added %d goroutines", tenants, grew)
	}
}
