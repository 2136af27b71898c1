// Tests of Concurrent's shard composition: the merge behind
// View and Snapshot, the epoch cache, the partitioned batch paths, and
// views and batches taken while writers run, on both backends.
package freq

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/streamgen"
)

// fillShards drives a deterministic mixed workload of n updates over
// 5000 items into c, naming item i by item(i).
func fillShards[T comparable](t testing.TB, c *Concurrent[T], n int64, item func(int64) T) {
	t.Helper()
	for i := int64(0); i < n; i++ {
		if err := c.Update(item(i%5000), i%23+1); err != nil {
			t.Fatal(err)
		}
	}
}

// sameSummary fails unless a and b hold the same stream weight, error
// band and rows.
func sameSummary[T comparable](t *testing.T, a, b *Sketch[T]) {
	t.Helper()
	if a.StreamWeight() != b.StreamWeight() || a.MaximumError() != b.MaximumError() || a.NumActive() != b.NumActive() {
		t.Fatalf("summaries differ: N %d/%d err %d/%d active %d/%d",
			a.StreamWeight(), b.StreamWeight(), a.MaximumError(), b.MaximumError(), a.NumActive(), b.NumActive())
	}
	for item, r := range a.All() {
		if got := (Row[T]{item, b.Estimate(item), b.LowerBound(item), b.UpperBound(item)}); got != r {
			t.Fatalf("item %v: row %v, want %v", item, got, r)
		}
	}
}

// TestMergeIgnoresGOMAXPROCS pins that View and Snapshot fold the
// shards in one order whatever GOMAXPROCS says: under a pinned seed, an
// int64 view built at GOMAXPROCS 1 and one built at 4 encode byte for
// byte the same, so a SNAP digest does not depend on the host's
// processor count. The generic backend keeps its counters in a Go map,
// whose encoding is not byte-stable, so its two views are only checked
// to hold the same summary. Each rebuild keeps the epoch cache's
// contract.
func TestMergeIgnoresGOMAXPROCS(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		c, err := NewConcurrent[int64](4096, WithShards(8), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		fillShards(t, c, 100_000, func(i int64) int64 { return i })
		v1, v4 := viewsAt1And4(t, c)
		one, err := v1.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		four, err := v4.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one, four) {
			t.Fatal("the view encodes differently at GOMAXPROCS 1 and 4")
		}
	})
	t.Run("string", func(t *testing.T) {
		c, err := NewConcurrent[string](4096, WithShards(8))
		if err != nil {
			t.Fatal(err)
		}
		fillShards(t, c, 100_000, func(i int64) string { return fmt.Sprint("s", i) })
		v1, v4 := viewsAt1And4(t, c)
		sameSummary(t, v1.sk, v4.sk)
	})
}

// viewsAt1And4 rebuilds c's view at GOMAXPROCS 1 and then at 4, and
// checks that each stays cached until the next write.
func viewsAt1And4[T comparable](t *testing.T, c *Concurrent[T]) (*View[T], *View[T]) {
	t.Helper()
	v1 := viewAt(t, c, 1)
	v4 := viewAt(t, c, 4)
	if v1.sk == v4.sk {
		t.Fatal("a write did not invalidate the cached view")
	}
	return v1, v4
}

// viewAt rebuilds c's view at the given GOMAXPROCS, checks that it
// stays cached until a write, and returns it.
func viewAt[T comparable](t *testing.T, c *Concurrent[T], procs int) *View[T] {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var probe T
	if err := c.Update(probe, 0); err != nil {
		t.Fatal(err)
	}
	v1, err := c.View()
	if err != nil {
		t.Fatal(err)
	}
	merges := c.ViewMerges()
	v2, err := c.View()
	if err != nil {
		t.Fatal(err)
	}
	if v1.sk != v2.sk || c.ViewMerges() != merges {
		t.Fatal("a view rebuild broke the epoch cache")
	}
	return v1
}

// TestViewMatchesSnapshot checks the view answers exactly like an
// Algorithm 5 snapshot of the same state.
func TestViewMatchesSnapshot(t *testing.T) {
	c, err := NewConcurrent[int64](1024, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if err := c.Update(i%64, 3); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	view, err := c.View()
	if err != nil {
		t.Fatal(err)
	}
	sameSummary(t, snap, view.sk)
	sameSummary(t, view.sk, snap)
}

// TestViewUnderConcurrency hammers View from a reader racing writers;
// the race detector plus the per-shard consistency invariant (no torn
// reads) is the assertion, and the final view holds every write.
func TestViewUnderConcurrency(t *testing.T) {
	c, err := NewConcurrent[int64](1024, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				_ = c.Update(int64(g*5000+i)%100, 2)
			}
		}(g)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, err := c.View()
			if err != nil {
				t.Error(err)
				return
			}
			if v.StreamWeight() < 0 {
				t.Error("negative stream weight")
				return
			}
			for range v.All() {
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()

	v, err := c.View()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4 * 5000 * 2); v.StreamWeight() != want {
		t.Fatalf("final view N = %d, want %d", v.StreamWeight(), want)
	}
}

// TestShardedEstimateBatchMatchesScalar checks the partitioned batch
// read against the scalar point query, over one and eight shards, mixed
// hits and misses, on both backends.
func TestShardedEstimateBatchMatchesScalar(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		estimateBatchMatchesScalar(t, func(i int64) int64 { return i })
	})
	t.Run("string", func(t *testing.T) {
		estimateBatchMatchesScalar(t, func(i int64) string { return fmt.Sprint("s", i) })
	})
}

func estimateBatchMatchesScalar[T comparable](t *testing.T, item func(int64) T) {
	for _, shards := range []int{1, 8} {
		c, err := NewConcurrent[T](4096, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		fillShards(t, c, 50_000, item)
		items := make([]T, 0, 1200)
		for i := int64(0); i < 600; i++ {
			items = append(items, item(i), item(1_000_000+i))
		}
		got := c.EstimateBatch(items, nil)
		if len(got) != len(items) {
			t.Fatalf("len %d, want %d", len(got), len(items))
		}
		for i, x := range items {
			if want := c.Estimate(x); got[i] != want {
				t.Fatalf("shards=%d item %v: %d, want %d", shards, x, got[i], want)
			}
		}
		// dst reuse must not reallocate.
		again := c.EstimateBatch(items, got)
		if &again[0] != &got[0] {
			t.Error("EstimateBatch reallocated a sufficient dst")
		}
	}
}

// TestSequentialCorrectness: every item's bounds bracket its true
// weight, and each shard, which sees about 1/8 of the stream with 1/8
// of the counters, keeps the error of a single sketch of that shape.
func TestSequentialCorrectness(t *testing.T) {
	c, err := NewConcurrent[int64](1024, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := streamgen.ZipfStream(1.1, 1<<12, 80_000, 500, 71)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int64]int64{}
	var n int64
	for _, u := range stream {
		if err := c.Update(u.Item, u.Weight); err != nil {
			t.Fatal(err)
		}
		truth[u.Item] += u.Weight
		n += u.Weight
	}
	if c.StreamWeight() != n {
		t.Fatalf("N = %d, want %d", c.StreamWeight(), n)
	}
	var worst int64
	for item, f := range truth {
		if lb, ub := c.LowerBound(item), c.UpperBound(item); lb > f || ub < f {
			t.Fatalf("item %d: [%d, %d] misses %d", item, lb, ub, f)
		}
		worst = max(worst, c.Estimate(item)-f, f-c.Estimate(item))
	}
	if bound := 3 * TailBound(1024/8, 0, n/8); float64(worst) > 2*bound {
		t.Errorf("max error %d > sharded bound %.0f", worst, 2*bound)
	}
}

// TestViewEpochCache pins the caching contract on both backends: the
// same merged sketch comes back while no shard changes, and every write
// path rebuilds it.
func TestViewEpochCache(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		viewEpochCache(t, func(i int64) int64 { return i })
	})
	t.Run("string", func(t *testing.T) {
		viewEpochCache(t, func(i int64) string { return fmt.Sprint("s", i) })
	})
}

func viewEpochCache[T comparable](t *testing.T, item func(int64) T) {
	c, err := NewConcurrent[T](512, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if err := c.Update(item(i), i+1); err != nil {
			t.Fatal(err)
		}
	}
	view := func() *Sketch[T] {
		t.Helper()
		v, err := c.View()
		if err != nil {
			t.Fatal(err)
		}
		return v.sk
	}
	v1 := view()
	for range 8 {
		if view() != v1 {
			t.Fatal("unchanged epochs returned a different view")
		}
	}
	if got := c.ViewMerges(); got != int64(c.NumShards()) {
		t.Fatalf("repeated views merged %d shards, want %d", got, c.NumShards())
	}
	w, err := NewWriter(c)
	if err != nil {
		t.Fatal(err)
	}
	writes := []struct {
		name string
		do   func() error
	}{
		{"Update", func() error { return c.Update(item(1), 1) }},
		{"UpdateBatch", func() error { c.UpdateBatch([]T{item(2), item(3)}); return nil }},
		{"UpdateWeightedBatch", func() error { return c.UpdateWeightedBatch([]T{item(4)}, []int64{2}) }},
		{"Writer.Flush", func() error {
			if err := w.Add(item(5), 1); err != nil {
				return err
			}
			return w.Flush()
		}},
		{"Reset", func() error { c.Reset(); return nil }},
	}
	for _, wr := range writes {
		before := view()
		if err := wr.do(); err != nil {
			t.Fatal(err)
		}
		if view() == before {
			t.Errorf("%s did not invalidate the view", wr.name)
		}
	}
}

// TestBatchConcurrent runs UpdateWeightedBatch from several goroutines
// on both backends; the race detector guards the locking, and the total
// weight must survive.
func TestBatchConcurrent(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		batchConcurrent(t, func(i int) int64 { return int64(i) })
	})
	t.Run("string", func(t *testing.T) {
		batchConcurrent(t, func(i int) string { return fmt.Sprint("s", i) })
	})
}

func batchConcurrent[T comparable](t *testing.T, item func(int) T) {
	c, err := NewConcurrent[T](1<<12, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	const workers, perG, batch = 4, 200, 64
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			items := make([]T, batch)
			weights := make([]int64, batch)
			for r := range perG {
				for i := range items {
					items[i], weights[i] = item((g*perG+r)*batch+i), 1
				}
				if err := c.UpdateWeightedBatch(items, weights); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := c.StreamWeight(), int64(workers*perG*batch); got != want {
		t.Errorf("StreamWeight = %d, want %d", got, want)
	}
}
