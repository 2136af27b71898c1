package sharded

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/internal/streamgen"
)

// TestBatchMatchesUpdateLoop drives the same pinned-seed sketch via the
// per-item loop and via UpdateWeightedBatch. Partitioning preserves each
// shard's update subsequence and the per-shard core batch is
// byte-identical to its loop, so every query must agree exactly.
func TestBatchMatchesUpdateLoop(t *testing.T) {
	stream, err := streamgen.ZipfStream(1.1, 1<<14, 100_000, 1000, 0xBA7C4)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxCounters: 64, Seed: 0x5EED}

	loop, err := NewWithOptions(4, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range stream {
		if err := loop.Update(u.Item, u.Weight); err != nil {
			t.Fatal(err)
		}
	}

	batched, err := NewWithOptions(4, opts)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]int64, len(stream))
	weights := make([]int64, len(stream))
	for i, u := range stream {
		items[i], weights[i] = u.Item, u.Weight
	}
	const batchSize = 1 << 12
	for lo := 0; lo < len(items); lo += batchSize {
		hi := min(lo+batchSize, len(items))
		if err := batched.UpdateWeightedBatch(items[lo:hi], weights[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := batched.StreamWeight(), loop.StreamWeight(); got != want {
		t.Errorf("StreamWeight = %d, want %d", got, want)
	}
	if got, want := batched.MaximumError(), loop.MaximumError(); got != want {
		t.Errorf("MaximumError = %d, want %d", got, want)
	}
	for _, u := range stream[:10_000] {
		if got, want := batched.Estimate(u.Item), loop.Estimate(u.Item); got != want {
			t.Fatalf("Estimate(%d) = %d, want %d", u.Item, got, want)
		}
	}
}

// TestUpdateShardPartitioned checks the pre-partitioned flush path:
// routing with ShardIndex and applying per shard with UpdateShardPairs is
// equivalent to the self-partitioning batch.
func TestUpdateShardPartitioned(t *testing.T) {
	stream, err := streamgen.ZipfStream(1.1, 1<<12, 50_000, 100, 0xF00)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxCounters: 256, Seed: 0xABC}

	direct, err := NewWithOptions(8, opts)
	if err != nil {
		t.Fatal(err)
	}
	parted, err := NewWithOptions(8, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := parted.NumShards()
	perShard := make([][]hashmap.Pair, n)
	for _, u := range stream {
		if err := direct.Update(u.Item, u.Weight); err != nil {
			t.Fatal(err)
		}
		j := parted.ShardIndex(u.Item)
		perShard[j] = append(perShard[j], hashmap.Pair{Key: u.Item, Value: u.Weight})
	}
	for j, pairs := range perShard {
		if err := parted.UpdateShardPairs(j, pairs); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := parted.StreamWeight(), direct.StreamWeight(); got != want {
		t.Errorf("StreamWeight = %d, want %d", got, want)
	}
	for _, u := range stream[:5_000] {
		if got, want := parted.Estimate(u.Item), direct.Estimate(u.Item); got != want {
			t.Fatalf("Estimate(%d) = %d, want %d", u.Item, got, want)
		}
	}
	if err := parted.UpdateShardPairs(n, nil); err == nil {
		t.Error("out-of-range shard index accepted")
	}
}

// TestBatchConcurrent hammers UpdateWeightedBatch from several goroutines
// and checks the total weight survives (the race detector guards the
// locking).
func TestBatchConcurrent(t *testing.T) {
	sk, err := NewWithOptions(4, core.Options{MaxCounters: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 4
		perG    = 200
		batch   = 64
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			items := make([]int64, batch)
			weights := make([]int64, batch)
			for r := 0; r < perG; r++ {
				for i := range items {
					items[i] = int64((g*perG+r)*batch + i)
					weights[i] = 1
				}
				if err := sk.UpdateWeightedBatch(items, weights); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := sk.StreamWeight(), int64(workers*perG*batch); got != want {
		t.Errorf("StreamWeight = %d, want %d", got, want)
	}
}
