// Regression tests for the snapshot-isolated read path: the epoch cache
// must make repeated reads free (merge count flat), every write path
// must invalidate it, and a View must stay frozen while the live sketch
// moves on — on both backends.
package freq_test

import (
	"testing"

	"repro/freq"
)

// TestConcurrentCachedViewMergeCountFlat is the satellite regression
// test: repeated row reads with no interleaved writes must perform zero
// additional shard merges. A read that needs the view merges every
// shard once per write; a limited read in the default order ranks from
// the shards' largest counters and merges none at all.
func TestConcurrentCachedViewMergeCountFlat(t *testing.T) {
	const shards = 4
	run := func(t *testing.T, perWrite int64, read func(c *freq.Concurrent[int64])) {
		c, err := freq.NewConcurrent[int64](1024, freq.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 100; i++ {
			if err := c.Update(i, i+1); err != nil {
				t.Fatal(err)
			}
		}
		read(c)
		after := c.ViewMerges()
		if after != perWrite {
			t.Fatalf("first read merged %d shards, want %d", after, perWrite)
		}
		for i := 0; i < 10; i++ {
			read(c)
		}
		if got := c.ViewMerges(); got != after {
			t.Fatalf("10 repeated reads grew merge count %d -> %d; cache not reused", after, got)
		}
		// One write invalidates: the next read re-merges exactly once.
		if err := c.Update(7, 1); err != nil {
			t.Fatal(err)
		}
		read(c)
		if got := c.ViewMerges(); got != after+perWrite {
			t.Fatalf("read after write merged to %d, want %d", got, after+perWrite)
		}
	}
	t.Run("TopK", func(t *testing.T) {
		run(t, shards, func(c *freq.Concurrent[int64]) {
			if v, err := c.View(); err == nil {
				_ = v.Query().Limit(5).Collect()
			}
		})
	})
	t.Run("FrequentItemsAboveThreshold", func(t *testing.T) {
		run(t, shards, func(c *freq.Concurrent[int64]) { _ = c.Query().Where(10).Collect() })
	})
	t.Run("QueryCollect", func(t *testing.T) {
		run(t, 0, func(c *freq.Concurrent[int64]) {
			if rows := c.Query().Limit(3).Collect(); len(rows) != 3 || rows[0].Item != 99 {
				t.Fatalf("Limit(3) = %v, want item 99 first", rows)
			}
		})
	})
}

// TestConcurrentCachedViewGenericBackend runs the same contract on the
// map-backed backend, with Writer flushes and Reset as invalidating
// writes: a limited read in the default order ranks from the shards'
// largest counters and merges nothing, and a read that needs the view
// (Where, View) merges every shard once per write.
func TestConcurrentCachedViewGenericBackend(t *testing.T) {
	const shards = 4
	c, err := freq.NewConcurrent[string](1024, freq.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	viewReads := func() {
		t.Helper()
		_ = c.Query().Where(c.MaximumError()).Collect()
		if _, err := c.View(); err != nil {
			t.Fatal(err)
		}
	}
	c.UpdateBatch([]string{"a", "b", "c", "a"})
	if got := c.Query().Limit(2).Collect(); len(got) != 2 || got[0].Item != "a" {
		t.Fatalf("Limit(2) = %v, want a first", got)
	}
	if got := c.ViewMerges(); got != 0 {
		t.Fatalf("Limit(2) merged %d shards, want 0", got)
	}
	viewReads()
	base := c.ViewMerges()
	if base != shards {
		t.Fatalf("first view read merged %d shards, want %d", base, shards)
	}
	for i := 0; i < 5; i++ {
		_ = c.Query().Limit(2).Collect()
		viewReads()
	}
	if got := c.ViewMerges(); got != base {
		t.Fatalf("repeated reads grew merge count %d -> %d", base, got)
	}

	// A Writer flush is a write: it must invalidate the cache.
	w, err := freq.NewWriter(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add("d", 5); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.Query().Limit(1).Collect(); len(got) != 1 || got[0].Item != "d" {
		t.Fatalf("Limit(1) after writer flush = %v, want d", got)
	}
	if got := c.ViewMerges(); got != base {
		t.Fatalf("Limit(1) after writer flush merged (%d -> %d)", base, got)
	}
	viewReads()
	if got := c.ViewMerges(); got != base+shards {
		t.Fatalf("writer flush did not invalidate view (merges %d, want %d)", got, base+shards)
	}

	// Reset invalidates too.
	base = c.ViewMerges()
	c.Reset()
	if got := c.Query().Limit(1).Collect(); len(got) != 0 {
		t.Fatalf("Limit(1) after Reset = %v, want empty", got)
	}
	viewReads()
	if got := c.ViewMerges(); got != base+shards {
		t.Fatal("Reset did not invalidate view")
	}
}

// TestViewSnapshotIsolation pins the isolation contract: a View keeps
// answering from its frozen state no matter what lands on the live
// sketch afterwards, and a fresh View sees the new writes.
func TestViewSnapshotIsolation(t *testing.T) {
	c, err := freq.NewConcurrent[int64](1024, freq.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Update(1, 100); err != nil {
		t.Fatal(err)
	}
	v1, err := c.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := v1.Estimate(1); got != 100 {
		t.Fatalf("view Estimate(1) = %d, want 100", got)
	}
	if err := c.Update(1, 50); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(2, 30); err != nil {
		t.Fatal(err)
	}
	// The frozen view is unmoved; the live sketch and a fresh view see
	// the writes.
	if got := v1.Estimate(1); got != 100 {
		t.Errorf("frozen view moved: Estimate(1) = %d, want 100", got)
	}
	if got := v1.Estimate(2); got != 0 {
		t.Errorf("frozen view moved: Estimate(2) = %d, want 0", got)
	}
	if got := c.Estimate(1); got != 150 {
		t.Errorf("live Estimate(1) = %d, want 150", got)
	}
	v2, err := c.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := v2.Estimate(1); got != 150 {
		t.Errorf("fresh view Estimate(1) = %d, want 150", got)
	}
	if got, want := v2.StreamWeight(), int64(180); got != want {
		t.Errorf("fresh view StreamWeight = %d, want %d", got, want)
	}

	// Materialize yields an independent mutable copy.
	own, err := v2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := own.Update(1, 1000); err != nil {
		t.Fatal(err)
	}
	if got := v2.Estimate(1); got != 150 {
		t.Errorf("mutating the materialized copy moved the view: %d", got)
	}
}

// TestQueryOverConcurrentMatchesSketch pins that a Query over a sharded
// Concurrent returns exactly the rows of a plain Sketch fed the same
// stream, when the budget evicts nothing (exact regime, merged view
// offset 0).
func TestQueryOverConcurrentMatchesSketch(t *testing.T) {
	sk, err := freq.New[int64](4096)
	if err != nil {
		t.Fatal(err)
	}
	c, err := freq.NewConcurrent[int64](4096, freq.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		w := 1 + (i*i)%97
		if err := sk.Update(i, w); err != nil {
			t.Fatal(err)
		}
		if err := c.Update(i, w); err != nil {
			t.Fatal(err)
		}
	}
	want := sk.Query().Where(50).Limit(20).Collect()
	got := c.Query().Where(50).Limit(20).Collect()
	if len(want) == 0 {
		t.Fatal("fixture produced no rows")
	}
	if len(got) != len(want) {
		t.Fatalf("row counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}
