package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/freq"
)

// base is the deterministic epoch all store tests lay slots against.
var base = time.Unix(1_700_000_000, 0)

// appendSlot persists one synthetic slot covering [start, end) holding
// the given item weights.
func appendSlot(t *testing.T, st *Store[int64], start, end time.Time, weights map[int64]int64) {
	t.Helper()
	sk, err := freq.New[int64](4096)
	if err != nil {
		t.Fatal(err)
	}
	for item, w := range weights {
		if err := sk.Update(item, w); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AppendSlot(freq.NewView(sk), start, end); err != nil {
		t.Fatalf("AppendSlot(%v, %v): %v", start, end, err)
	}
}

// queryWeights reads back every item's estimate over [from, to).
func queryWeights(t *testing.T, st *Store[int64], from, to time.Time, items []int64) map[int64]int64 {
	t.Helper()
	v, err := st.Query(from, to)
	if err != nil {
		t.Fatalf("Query(%v, %v): %v", from, to, err)
	}
	got := map[int64]int64{}
	for _, item := range items {
		if e := v.Estimate(item); e != 0 {
			got[item] = e
		}
	}
	return got
}

// TestRoundTripWindowed is the PR's acceptance property: a store-backed
// window queried over its full persisted range answers exactly like a
// single in-memory sketch of the same stream (no evictions at this k,
// so estimates are exact on both sides).
func TestRoundTripWindowed(t *testing.T) {
	st, err := Open[int64](t.TempDir(), WithPartitionDuration(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	w, err := freq.NewConcurrentWindowed[int64](4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	w.SetRotationSink(st, base)

	ref, err := freq.New[int64](1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const slots = 25 // 25 x 10s slots spans 5 one-minute partitions
	for s := 0; s < slots; s++ {
		for i := 0; i < 200; i++ {
			item := int64(rng.Intn(100))
			weight := int64(rng.Intn(50) + 1)
			if err := w.Update(item, weight); err != nil {
				t.Fatal(err)
			}
			if err := ref.Update(item, weight); err != nil {
				t.Fatal(err)
			}
		}
		w.RotateAt(base.Add(time.Duration(s+1) * 10 * time.Second))
	}
	if err := w.SinkErr(); err != nil {
		t.Fatalf("rotation sink error: %v", err)
	}

	v, err := st.Query(base, base.Add(slots*10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.StreamWeight(), ref.StreamWeight(); got != want {
		t.Fatalf("stream weight: got %d, want %d", got, want)
	}
	if v.MaximumError() != 0 {
		t.Fatalf("merged error band %d, want 0 (no evictions)", v.MaximumError())
	}
	for item := int64(0); item < 100; item++ {
		if got, want := v.Estimate(item), ref.Estimate(item); got != want {
			t.Fatalf("item %d: store says %d, reference says %d", item, got, want)
		}
	}

	s := st.Stats()
	if s.Partitions < 4 {
		t.Fatalf("expected the stream to span partitions, got %d", s.Partitions)
	}
	if s.Blocks != slots {
		t.Fatalf("blocks: got %d, want %d", s.Blocks, slots)
	}
	if s.From.UnixNano() != base.UnixNano() {
		t.Fatalf("coverage start: got %v, want %v", s.From, base)
	}

	// A sub-range query sees only its slots.
	sub, err := st.Query(base, base.Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.StreamWeight(); got >= ref.StreamWeight() || got == 0 {
		t.Fatalf("sub-range weight %d should be a proper nonzero fraction of %d", got, ref.StreamWeight())
	}
}

// TestQueryIntoReuse verifies the steady-state accumulator contract:
// passing the previous result back in reuses it (same pointer) once its
// budget suffices.
func TestQueryIntoReuse(t *testing.T) {
	st, err := Open[int64](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for s := 0; s < 5; s++ {
		appendSlot(t, st,
			base.Add(time.Duration(s)*10*time.Second),
			base.Add(time.Duration(s+1)*10*time.Second),
			map[int64]int64{1: 10, int64(s + 2): 5})
	}
	from, to := base, base.Add(50*time.Second)
	sk1, err := st.QueryInto(nil, from, to)
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := st.QueryInto(sk1, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if sk1 != sk2 {
		t.Fatal("QueryInto did not reuse a sufficient accumulator")
	}
	if got := sk2.Estimate(1); got != 50 {
		t.Fatalf("item 1: got %d, want 50", got)
	}
}

// TestReopen closes and reopens a store, checks the history survives,
// then appends more and checks the partition file was resumed, not
// replaced.
func TestReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	appendSlot(t, st, base, base.Add(10*time.Second), map[int64]int64{1: 7, 2: 3})
	appendSlot(t, st, base.Add(10*time.Second), base.Add(20*time.Second), map[int64]int64{1: 5})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := queryWeights(t, st, base, base.Add(time.Minute), []int64{1, 2, 3})
	if got[1] != 12 || got[2] != 3 {
		t.Fatalf("after reopen: got %v, want map[1:12 2:3]", got)
	}
	if s := st.Stats(); s.Partitions != 1 || s.Blocks != 2 {
		t.Fatalf("stats after reopen: %+v", s)
	}

	appendSlot(t, st, base.Add(20*time.Second), base.Add(30*time.Second), map[int64]int64{2: 4})
	if s := st.Stats(); s.Partitions != 1 || s.Blocks != 3 {
		t.Fatalf("append after reopen should resume the partition: %+v", s)
	}
	got = queryWeights(t, st, base, base.Add(time.Minute), []int64{1, 2})
	if got[1] != 12 || got[2] != 7 {
		t.Fatalf("after resumed append: got %v", got)
	}
}

// TestTornTailRecovery simulates a crash mid-append: garbage after the
// last intact block must be truncated away at open, with every earlier
// block preserved and appends resuming cleanly.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	appendSlot(t, st, base, base.Add(10*time.Second), map[int64]int64{1: 7})
	appendSlot(t, st, base.Add(10*time.Second), base.Add(20*time.Second), map[int64]int64{2: 9})
	name := st.parts[0].name
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn append: a partial block header plus a few payload bytes.
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, blockHeaderLen+5)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err = Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if s := st.Stats(); s.Blocks != 2 {
		t.Fatalf("intact blocks after torn tail: got %d, want 2", s.Blocks)
	}
	got := queryWeights(t, st, base, base.Add(time.Minute), []int64{1, 2})
	if got[1] != 7 || got[2] != 9 {
		t.Fatalf("after torn-tail recovery: got %v", got)
	}
	appendSlot(t, st, base.Add(20*time.Second), base.Add(30*time.Second), map[int64]int64{3: 1})
	got = queryWeights(t, st, base, base.Add(time.Minute), []int64{1, 2, 3})
	if got[3] != 1 {
		t.Fatalf("append after recovery lost data: got %v", got)
	}
}

// TestCorruptTailBlock flips a byte inside the last block's payload: the
// CRC must reject exactly that block at open, keeping the prefix.
func TestCorruptTailBlock(t *testing.T) {
	dir := t.TempDir()
	st, err := Open[int64](dir, WithCodec(None{}))
	if err != nil {
		t.Fatal(err)
	}
	appendSlot(t, st, base, base.Add(10*time.Second), map[int64]int64{1: 7})
	appendSlot(t, st, base.Add(10*time.Second), base.Add(20*time.Second), map[int64]int64{2: 9})
	name := st.parts[0].name
	lastOff := st.parts[0].blocks[1].off
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], lastOff+8); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], lastOff+8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err = Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if s := st.Stats(); s.Blocks != 1 {
		t.Fatalf("blocks after corrupt tail: got %d, want 1", s.Blocks)
	}
	got := queryWeights(t, st, base, base.Add(time.Minute), []int64{1, 2})
	if got[1] != 7 || got[2] != 0 {
		t.Fatalf("after corrupt-tail recovery: got %v", got)
	}
}

// TestRetentionBytes drops oldest partitions beyond the byte budget but
// never the one receiving appends.
func TestRetentionBytes(t *testing.T) {
	st, err := Open[int64](t.TempDir(),
		WithPartitionDuration(10*time.Second),
		WithRetentionBytes(500))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for s := 0; s < 12; s++ {
		appendSlot(t, st,
			base.Add(time.Duration(s)*10*time.Second),
			base.Add(time.Duration(s+1)*10*time.Second),
			map[int64]int64{int64(s): 100, 999: 1})
	}
	s := st.Stats()
	if s.Bytes > 500+st.cur.bytes {
		t.Fatalf("retention did not hold the byte budget: %+v", s)
	}
	if s.Partitions >= 12 {
		t.Fatalf("no partitions dropped: %+v", s)
	}
	// The newest slot must always survive.
	got := queryWeights(t, st, base, base.Add(3*time.Minute), []int64{11})
	if got[11] != 100 {
		t.Fatalf("newest slot dropped by retention: got %v", got)
	}
}

// TestRetentionAge drops partitions whose coverage is entirely older
// than the horizon.
func TestRetentionAge(t *testing.T) {
	st, err := Open[int64](t.TempDir(),
		WithPartitionDuration(time.Hour),
		WithRetentionAge(90*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	now := time.Now()
	old := now.Add(-3 * time.Hour).Truncate(time.Hour)
	appendSlot(t, st, old, old.Add(time.Minute), map[int64]int64{1: 5})
	appendSlot(t, st, now.Add(-time.Minute), now, map[int64]int64{2: 6})
	if err := st.EnforceRetention(); err != nil {
		t.Fatal(err)
	}
	got := queryWeights(t, st, now.Add(-24*time.Hour), now.Add(time.Hour), []int64{1, 2})
	if got[1] != 0 {
		t.Fatalf("expired slot survived: got %v", got)
	}
	if got[2] != 6 {
		t.Fatalf("recent slot dropped: got %v", got)
	}
}

// TestRetentionReachesEveryHistory: EnforceRetention expires old data
// in every history, tenant histories included, and the age policy drops
// a history's append partition once its whole coverage is past the
// horizon. The slots are written without retention, three hours back,
// and a reopen with a one-hour horizon must drop them: the default
// history's only partition (its append partition) and alice's.
func TestRetentionReachesEveryHistory(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	old := now.Add(-3 * time.Hour)
	st, err := Open[int64](dir, WithPartitionDuration(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	appendSlot(t, st, old, old.Add(time.Minute), map[int64]int64{1: 5})
	if err := st.AppendTenant("alice", tenantView(t, map[int64]int64{7: 100}), old, old.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open[int64](dir, WithPartitionDuration(time.Hour), WithRetentionAge(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.EnforceRetention(); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Partitions != 0 {
		t.Fatalf("the default history kept its expired append partition: %+v", s)
	}
	// The next append rolls a new partition.
	appendSlot(t, st, now.Add(-time.Minute), now, map[int64]int64{2: 6})
	got := queryWeights(t, st, now.Add(-24*time.Hour), now.Add(time.Hour), []int64{1, 2})
	if got[1] != 0 || got[2] != 6 {
		t.Fatalf("default history after retention = %v, want only item 2 at 6", got)
	}
	sk, err := st.QueryTenantInto("alice", nil, now.Add(-24*time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if e := sk.Estimate(7); e != 0 {
		t.Fatalf("alice's expired slot survived EnforceRetention: Estimate(7) = %d", e)
	}
}

// TestEnforceRetentionDuringAppends runs EnforceRetention, which walks
// the tenant histories, while the default history and three tenants
// take appends; the race detector guards the locking, and every fresh
// slot survives.
func TestEnforceRetentionDuringAppends(t *testing.T) {
	st, err := Open[int64](t.TempDir(), WithPartitionDuration(time.Minute), WithRetentionAge(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	now := time.Now()
	v := tenantView(t, map[int64]int64{7: 1})
	ids := []string{"", "a", "b", "c"}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				at := now.Add(time.Duration(i) * time.Second)
				if err := st.AppendTenant(id, v, at, at.Add(time.Second)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 20 {
			if err := st.EnforceRetention(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	for _, id := range ids {
		sk, err := st.QueryTenantInto(id, nil, now, now.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if e := sk.Estimate(7); e != 20 {
			t.Errorf("history %q: Estimate(7) = %d, want 20", id, e)
		}
	}
}

// TestCompaction is the equivalence property: folding fine partitions
// into coarse ones must not change any whole-range answer, and must
// shrink the partition and block counts.
func TestCompaction(t *testing.T) {
	st, err := Open[int64](t.TempDir(), WithPartitionDuration(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(42))
	const slots = 30
	for s := 0; s < slots; s++ {
		weights := map[int64]int64{}
		for i := 0; i < 40; i++ {
			weights[int64(rng.Intn(60))] += int64(rng.Intn(9) + 1)
		}
		appendSlot(t, st,
			base.Add(time.Duration(s)*5*time.Second),
			base.Add(time.Duration(s+1)*5*time.Second),
			weights)
	}
	items := make([]int64, 60)
	for i := range items {
		items[i] = int64(i)
	}
	from, to := base, base.Add(slots*5*time.Second)
	before := queryWeights(t, st, from, to, items)
	parts0, blocks0 := st.Stats().Partitions, st.Stats().Blocks

	folded, err := st.Compact(to, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if folded == 0 {
		t.Fatal("compaction folded nothing")
	}
	s := st.Stats()
	if s.Partitions >= parts0 || s.Blocks >= blocks0 {
		t.Fatalf("compaction did not shrink: %d/%d partitions, %d/%d blocks",
			s.Partitions, parts0, s.Blocks, blocks0)
	}
	after := queryWeights(t, st, from, to, items)
	for _, item := range items {
		if before[item] != after[item] {
			t.Fatalf("item %d changed across compaction: %d -> %d", item, before[item], after[item])
		}
	}

	// Idempotence: a second pass with the same span folds nothing new
	// for already-single-block buckets... except the bucket holding cur,
	// which stays untouched regardless.
	if _, err := st.Compact(to, time.Minute); err != nil {
		t.Fatal(err)
	}
	again := queryWeights(t, st, from, to, items)
	for _, item := range items {
		if before[item] != again[item] {
			t.Fatalf("item %d changed across second compaction: %d -> %d", item, before[item], again[item])
		}
	}

	// Equivalence must also survive a reopen of the compacted store.
	dir := st.Dir()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	reopened := queryWeights(t, st, from, to, items)
	for _, item := range items {
		if before[item] != reopened[item] {
			t.Fatalf("item %d changed across compaction+reopen: %d -> %d", item, before[item], reopened[item])
		}
	}
}

// TestJanitor checks both sides of the leftovers contract: stray
// partition files are removed when a manifest exists, and adopted when
// none does.
func TestJanitor(t *testing.T) {
	dir := t.TempDir()
	st, err := Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	appendSlot(t, st, base, base.Add(time.Second), map[int64]int64{1: 2})
	live := st.parts[0].name
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	stray := partFileName(base.Add(time.Hour).UnixNano(), 99)
	if err := os.WriteFile(filepath.Join(dir, stray), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "leftover.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err = Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, stray)); !os.IsNotExist(err) {
		t.Fatal("janitor left an unreferenced partition file")
	}
	if _, err := os.Stat(filepath.Join(dir, "leftover.tmp")); !os.IsNotExist(err) {
		t.Fatal("janitor left a temp file")
	}

	// No manifest: the surviving file is adopted by scan.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	st, err = Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.parts) != 1 || st.parts[0].name != live {
		t.Fatalf("adopt-by-scan failed: %d parts", len(st.parts))
	}
	got := queryWeights(t, st, base, base.Add(time.Minute), []int64{1})
	if got[1] != 2 {
		t.Fatalf("adopted data unreadable: got %v", got)
	}
}

// TestManifestCommittedBeforeFile exercises the roll crash window: a
// manifest entry whose partition file never landed must be tolerated
// (and cleaned) at open.
func TestManifestCommittedBeforeFile(t *testing.T) {
	dir := t.TempDir()
	st, err := Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	appendSlot(t, st, base, base.Add(time.Second), map[int64]int64{1: 2})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	m, ok, err := readManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest: ok=%v err=%v", ok, err)
	}
	m.Files = append(m.Files, manifestFile{Name: partFileName(base.Add(time.Hour).UnixNano(), 7)})
	if err := writeManifest(dir, m, false); err != nil {
		t.Fatal(err)
	}
	st, err = Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.parts) != 1 {
		t.Fatalf("phantom manifest entry became a partition: %d parts", len(st.parts))
	}
	if st.nextSeq <= 7 {
		t.Fatalf("nextSeq must advance past phantom entries, got %d", st.nextSeq)
	}
	got := queryWeights(t, st, base, base.Add(time.Minute), []int64{1})
	if got[1] != 2 {
		t.Fatalf("data lost across phantom recovery: got %v", got)
	}
}

// TestEmptyRange queries a store with no overlap and an empty store.
func TestEmptyRange(t *testing.T) {
	st, err := Open[int64](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v, err := st.Query(base, base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if v.StreamWeight() != 0 {
		t.Fatalf("empty store answered weight %d", v.StreamWeight())
	}
	appendSlot(t, st, base, base.Add(time.Second), map[int64]int64{1: 2})
	v, err = st.Query(base.Add(time.Hour), base.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if v.StreamWeight() != 0 {
		t.Fatalf("non-overlapping range answered weight %d", v.StreamWeight())
	}
}

// TestQueryBoundsClamped pins that query bounds outside the range
// representable as int64 unix nanoseconds (years ~1678–2262) saturate
// instead of wrapping: "everything before year 9999" must mean the
// whole history, not an empty (overflowed-negative) range.
func TestQueryBoundsClamped(t *testing.T) {
	st, err := Open[int64](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendSlot(t, st, base, base.Add(time.Second), map[int64]int64{7: 110})

	farPast := time.Unix(0, 0).AddDate(-3000, 0, 0)
	farFuture := time.Unix(0, 0).AddDate(8000, 0, 0)
	got := queryWeights(t, st, farPast, farFuture, []int64{7})
	if got[7] != 110 {
		t.Fatalf("saturating bounds missed data: got %v", got)
	}
	got = queryWeights(t, st, time.Unix(0, 0), farFuture, []int64{7})
	if got[7] != 110 {
		t.Fatalf("far-future to missed data: got %v", got)
	}
}

// TestClosed checks the ErrClosed surface.
func TestClosed(t *testing.T) {
	st, err := Open[int64](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	sk, _ := freq.New[int64](8)
	if err := st.AppendSlot(freq.NewView(sk), base, base.Add(time.Second)); err != ErrClosed {
		t.Fatalf("AppendSlot on closed store: %v", err)
	}
	if _, err := st.Query(base, base.Add(time.Second)); err != ErrClosed {
		t.Fatalf("Query on closed store: %v", err)
	}
	if _, err := st.Compact(base, time.Minute); err != ErrClosed {
		t.Fatalf("Compact on closed store: %v", err)
	}
}

// TestCodecFallback stores with the LZ codec and checks both paths: a
// compressible sketch block actually compresses, and the fallback keeps
// every block readable either way.
func TestCodecFallback(t *testing.T) {
	st, err := Open[int64](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Many items with small weights: the serialized table is highly
	// structured and should compress.
	weights := map[int64]int64{}
	for i := int64(0); i < 500; i++ {
		weights[i] = 3
	}
	appendSlot(t, st, base, base.Add(time.Second), weights)
	b := st.parts[0].blocks[0]
	if b.codec != codecIDLZ {
		t.Fatalf("structured block stored uncompressed (codec %d, %d -> %d bytes)", b.codec, b.rawLen, b.encLen)
	}
	if b.encLen >= b.rawLen {
		t.Fatalf("lz block did not shrink: %d -> %d", b.rawLen, b.encLen)
	}
	got := queryWeights(t, st, base, base.Add(time.Minute), []int64{0, 499})
	if got[0] != 3 || got[499] != 3 {
		t.Fatalf("compressed round trip: got %v", got)
	}
}

// TestFloorDiv pins the bucket rule across the negative axis.
func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 10, 0}, {9, 10, 0}, {10, 10, 1}, {-1, 10, -1}, {-10, 10, -1}, {-11, 10, -2},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Fatalf("floorDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
