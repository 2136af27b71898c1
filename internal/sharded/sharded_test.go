package sharded

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/streamgen"
)

func TestValidation(t *testing.T) {
	if _, err := New(1024, 0); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := New(8, 16); err == nil {
		t.Error("counters below per-shard minimum accepted")
	}
	sk, err := New(1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sk.NumShards() != 4 {
		t.Errorf("shards = %d, want 4 (rounded up)", sk.NumShards())
	}
}

func TestSequentialCorrectness(t *testing.T) {
	sk, err := New(1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exact.New()
	stream, err := streamgen.ZipfStream(1.1, 1<<12, 80_000, 500, 71)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range stream {
		if err := sk.Update(u.Item, u.Weight); err != nil {
			t.Fatal(err)
		}
		oracle.Update(u.Item, u.Weight)
	}
	if sk.StreamWeight() != oracle.StreamWeight() {
		t.Fatalf("N = %d, want %d", sk.StreamWeight(), oracle.StreamWeight())
	}
	oracle.Range(func(item, truth int64) bool {
		if lb, ub := sk.LowerBound(item), sk.UpperBound(item); lb > truth || ub < truth {
			t.Fatalf("item %d: [%d, %d] misses %d", item, lb, ub, truth)
		}
		return true
	})
	// Error band: each shard sees ~1/8 of the stream with 1/8 of the
	// counters, so the per-shard bound matches the global-sketch shape.
	bound := 3 * core.TailBound(1024/8, 0, oracle.StreamWeight()/8)
	if got := float64(oracle.MaxError(estimator{sk})); got > 2*bound {
		t.Errorf("max error %.0f > sharded bound %.0f", got, 2*bound)
	}
}

type estimator struct{ sk *Sketch }

func (e estimator) Estimate(item int64) int64 { return e.sk.Estimate(item) }

func TestConcurrentUpdates(t *testing.T) {
	// Hammer the sketch from many goroutines; run under -race in CI.
	sk, err := New(2048, 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 20_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream, err := streamgen.ZipfStream(1.1, 1<<10, perWorker, 100, uint64(90+w))
			if err != nil {
				t.Error(err)
				return
			}
			for _, u := range stream {
				if err := sk.Update(u.Item, u.Weight); err != nil {
					t.Error(err)
					return
				}
				// Interleave reads.
				_ = sk.Estimate(u.Item)
			}
		}(w)
	}
	// Concurrent global queries.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = sk.MaximumError()
			if _, err := sk.View(); err != nil {
				t.Error(err)
				return
			}
			if _, err := sk.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	// Total weight is now quiescent and must be exact.
	oracle := exact.New()
	for w := 0; w < workers; w++ {
		stream, _ := streamgen.ZipfStream(1.1, 1<<10, perWorker, 100, uint64(90+w))
		for _, u := range stream {
			oracle.Update(u.Item, u.Weight)
		}
	}
	if sk.StreamWeight() != oracle.StreamWeight() {
		t.Errorf("N = %d, want %d", sk.StreamWeight(), oracle.StreamWeight())
	}
	oracle.Range(func(item, truth int64) bool {
		if lb, ub := sk.LowerBound(item), sk.UpperBound(item); lb > truth || ub < truth {
			t.Fatalf("item %d: [%d, %d] misses %d", item, lb, ub, truth)
		}
		return true
	})
}

func TestSnapshotRoundTrip(t *testing.T) {
	sk, err := New(1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := streamgen.ZipfStream(1.2, 1<<10, 30_000, 100, 72)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exact.New()
	for _, u := range stream {
		_ = sk.Update(u.Item, u.Weight)
		oracle.Update(u.Item, u.Weight)
	}
	snap, err := sk.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.StreamWeight() != oracle.StreamWeight() {
		t.Fatalf("snapshot N %d, want %d", snap.StreamWeight(), oracle.StreamWeight())
	}
	oracle.Range(func(item, truth int64) bool {
		if lb, ub := snap.LowerBound(item), snap.UpperBound(item); lb > truth || ub < truth {
			t.Fatalf("snapshot item %d: [%d, %d] misses %d", item, lb, ub, truth)
		}
		return true
	})
	// Snapshot serializes like any core sketch.
	restored, err := core.Deserialize(snap.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if restored.StreamWeight() != snap.StreamWeight() {
		t.Error("serialized snapshot drifted")
	}
}

func TestReset(t *testing.T) {
	sk, err := New(512, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = sk.Update(1, 100)
	sk.Reset()
	if sk.StreamWeight() != 0 || sk.Estimate(1) != 0 {
		t.Error("Reset incomplete")
	}
	_ = sk.Update(2, 5)
	if sk.Estimate(2) != 5 {
		t.Error("unusable after Reset")
	}
}

func BenchmarkConcurrentUpdate(b *testing.B) {
	sk, err := New(24576, 16)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := streamgen.PacketTrace(streamgen.TraceConfig{
		Packets: 1 << 20, DistinctSources: 1 << 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			u := stream[i&(1<<20-1)]
			_ = sk.Update(u.Item, u.Weight)
			i++
		}
	})
}
