// Regression tests for Writer.Flush's partial-failure semantics: every
// shard must be attempted, errors joined, and exactly the failed
// shards' buffers kept intact for retry. The failure is injected by
// poisoning a buffered pair with a negative weight — the shard's
// backend batch validates and rejects it, standing in for any failing
// shard apply.
package freq

import (
	"errors"
	"strings"
	"testing"
)

// poisonShard flips one buffered pair in shard j to a rejected weight.
// It returns a function restoring the original weight, so the test can
// repair the shard and retry the flush.
func poisonShard[T comparable](t *testing.T, w *Writer[T], j int) (heal func()) {
	t.Helper()
	sh := &w.shards[j]
	if sh.n == 0 {
		t.Fatalf("shard %d has no buffered pairs to poison", j)
	}
	saved := sh.pairs[0].weight
	sh.pairs[0].weight = -1
	return func() { sh.pairs[0].weight = saved }
}

// bufferOnePerShard adds exactly one unit-weight item to every shard of
// w's sketch without triggering an auto-flush, returning the item
// routed to each shard index.
func bufferOnePerShard(t *testing.T, c *Concurrent[int64], w *Writer[int64]) []int64 {
	t.Helper()
	items := make([]int64, c.NumShards())
	routed := make([]bool, c.NumShards())
	remaining := c.NumShards()
	for item := int64(0); remaining > 0; item++ {
		j := c.route.ShardIndex(item)
		if routed[j] {
			continue
		}
		routed[j] = true
		items[j] = item
		remaining--
		if err := w.Add(item, 1); err != nil {
			t.Fatal(err)
		}
	}
	return items
}

func TestWriterFlushAttemptsEveryShard(t *testing.T) {
	c, err := NewConcurrent[int64](1024, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(c)
	if err != nil {
		t.Fatal(err)
	}
	items := bufferOnePerShard(t, c, w)

	// Poison shard 1: its flush fails, but shards 0, 2, 3 must still be
	// applied (pre-fix, Flush returned at shard 1 and left 2 and 3
	// buffered with no way to tell).
	heal := poisonShard(t, w, 1)
	err = w.Flush()
	if err == nil {
		t.Fatal("Flush ignored the poisoned shard")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("error does not identify the failed shard: %v", err)
	}
	for j, item := range items {
		want := int64(1)
		if j == 1 {
			want = 0 // the poisoned shard's batch is all-or-nothing
		}
		if got := c.Estimate(item); got != want {
			t.Fatalf("shard %d: estimate=%d, want %d (later shards must flush despite an earlier failure)",
				j, got, want)
		}
	}
	// Exactly the failed shard keeps its buffer for retry.
	if got := w.Buffered(); got != 1 {
		t.Fatalf("Buffered=%d after partial failure, want 1", got)
	}

	// Repair and retry: only the kept buffer lands, nothing double-applies.
	heal()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := w.Buffered(); got != 0 {
		t.Fatalf("Buffered=%d after retry, want 0", got)
	}
	for j, item := range items {
		if got := c.Estimate(item); got != 1 {
			t.Fatalf("shard %d: estimate=%d after retry, want 1", j, got)
		}
	}
}

func TestWriterFlushJoinsAllShardErrors(t *testing.T) {
	c, err := NewConcurrent[int64](1024, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(c)
	if err != nil {
		t.Fatal(err)
	}
	bufferOnePerShard(t, c, w)
	poisonShard(t, w, 0)
	poisonShard(t, w, 3)
	err = w.Flush()
	if err == nil {
		t.Fatal("Flush ignored two poisoned shards")
	}
	// errors.Join semantics: both failures are reported and reachable.
	msg := err.Error()
	if !strings.Contains(msg, "shard 0") || !strings.Contains(msg, "shard 3") {
		t.Fatalf("joined error missing a shard: %v", err)
	}
	if w.Buffered() != 2 {
		t.Fatalf("Buffered=%d, want 2 (both failed shards retained)", w.Buffered())
	}
}

func TestWriterCloseReportsFlushFailure(t *testing.T) {
	c, err := NewConcurrent[int64](1024, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(c)
	if err != nil {
		t.Fatal(err)
	}
	bufferOnePerShard(t, c, w)
	poisonShard(t, w, 0)
	if err := w.Close(); err == nil {
		t.Fatal("Close swallowed the flush failure")
	}
	if err := w.Add(1, 1); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("post-Close Add: got %v", err)
	}
}

// addPairsParity drives AddPairs and the per-item Add loop over the
// same stream on twin sketches and asserts identical results, then
// checks the all-or-nothing rejection and closed-writer surfaces. The
// backend is picked by the item type: int64 takes the fast sharded
// path, string the generic map-backed one.
func addPairsParity[T comparable](t *testing.T, mkItem func(i int) T) {
	t.Helper()
	mk := func() (*Concurrent[T], *Writer[T]) {
		c, err := NewConcurrent[T](1024, WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWriter(c)
		if err != nil {
			t.Fatal(err)
		}
		return c, w
	}
	pairs := make([]Pair[T], 0, 3000)
	for i := 0; i < 3000; i++ {
		// Includes zero weights, which AddPairs must skip as no-ops.
		pairs = append(pairs, Pair[T]{Item: mkItem(i % 37), Weight: int64(i % 5)})
	}

	cBatch, wBatch := mk()
	if err := wBatch.AddPairs(pairs); err != nil {
		t.Fatal(err)
	}
	if err := wBatch.Close(); err != nil {
		t.Fatal(err)
	}
	cLoop, wLoop := mk()
	for _, p := range pairs {
		if err := wLoop.Add(p.Item, p.Weight); err != nil {
			t.Fatal(err)
		}
	}
	if err := wLoop.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := cBatch.StreamWeight(), cLoop.StreamWeight(); got != want {
		t.Fatalf("stream weight: AddPairs %d, Add loop %d", got, want)
	}
	for i := 0; i < 37; i++ {
		item := mkItem(i)
		if got, want := cBatch.Estimate(item), cLoop.Estimate(item); got != want {
			t.Fatalf("item %v: AddPairs estimate %d, Add loop %d", item, got, want)
		}
	}

	// All-or-nothing rejection: a poisoned pair buffers nothing.
	_, wBad := mk()
	err := wBad.AddPairs([]Pair[T]{{Item: mkItem(1), Weight: 5}, {Item: mkItem(2), Weight: -1}})
	if !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("AddPairs with negative weight: %v, want ErrNegativeWeight", err)
	}
	if n := wBad.Buffered(); n != 0 {
		t.Fatalf("%d pairs buffered after rejected batch, want 0", n)
	}

	// Closed writer refuses batches.
	_, wClosed := mk()
	wClosed.Close()
	if err := wClosed.AddPairs(pairs[:1]); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("AddPairs after Close: %v, want ErrWriterClosed", err)
	}
}

func TestWriterAddPairsFast(t *testing.T) {
	addPairsParity(t, func(i int) int64 { return int64(i) })
}

func TestWriterAddPairsGeneric(t *testing.T) {
	addPairsParity(t, func(i int) string { return strings.Repeat("x", 1+i%3) + string(rune('a'+i%26)) })
}
