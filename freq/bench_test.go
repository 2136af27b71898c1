// Benchmark guard for the facade's zero-cost-abstraction claim: the
// generic fast path must add no measurable per-update overhead over
// driving internal/core directly. Compare:
//
//	go test -bench='Update$' -benchmem ./freq
//
// BenchmarkFreqUpdate vs BenchmarkCoreUpdate is the acceptance gate
// (<= 5% delta); the remaining benchmarks situate the generic fallback
// and the concurrent wrapper.
package freq

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/streamgen"
)

const (
	benchK    = 6144
	benchSeed = 0xF00D
)

var benchStream []streamgen.Update

func benchTrace(b *testing.B) []streamgen.Update {
	b.Helper()
	if benchStream == nil {
		var err error
		benchStream, err = streamgen.PacketTrace(streamgen.TraceConfig{
			Packets:         1_000_000,
			DistinctSources: 1 << 17,
			Alpha:           1.1,
			Seed:            0xCA1DA,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return benchStream
}

// BenchmarkCoreUpdate is the baseline: the internal parallel-array sketch
// driven directly, no facade.
func BenchmarkCoreUpdate(b *testing.B) {
	stream := benchTrace(b)
	s, err := core.NewWithOptions(core.Options{
		MaxCounters: benchK, Seed: benchSeed, DisableGrowth: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := stream[i%len(stream)]
		if err := s.Update(u.Item, u.Weight); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreqUpdate is the same workload through the generic facade's
// fast path; the acceptance criterion is <= 5% overhead vs
// BenchmarkCoreUpdate.
func BenchmarkFreqUpdate(b *testing.B) {
	stream := benchTrace(b)
	s, err := New[int64](benchK, WithSeed(benchSeed), WithoutGrowth())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := stream[i%len(stream)]
		if err := s.Update(u.Item, u.Weight); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreqUpdateUint64 pins the second fast-path instantiation.
func BenchmarkFreqUpdateUint64(b *testing.B) {
	stream := benchTrace(b)
	s, err := New[uint64](benchK, WithSeed(benchSeed), WithoutGrowth())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := stream[i%len(stream)]
		if err := s.Update(uint64(u.Item), u.Weight); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreqUpdateGeneric situates the map-backed fallback (string
// items) against the fast path.
func BenchmarkFreqUpdateGeneric(b *testing.B) {
	stream := benchTrace(b)
	words := make([]string, 1<<16)
	for i := range words {
		words[i] = string([]byte{
			byte('a' + i%26), byte('a' + (i>>4)%26), byte('a' + (i>>8)%26), byte('a' + (i>>12)%26),
		})
	}
	s, err := New[string](benchK)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := stream[i%len(stream)]
		if err := s.Update(words[uint64(u.Item)&(1<<16-1)], u.Weight); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentUpdate measures the sharded wrapper under parallel
// load.
func BenchmarkConcurrentUpdate(b *testing.B) {
	stream := benchTrace(b)
	c, err := NewConcurrent[int64](8*benchK, WithShards(8), WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			u := stream[i%len(stream)]
			if err := c.Update(u.Item, u.Weight); err != nil {
				b.Error(err) // Fatal is not allowed off the benchmark goroutine
				return
			}
			i++
		}
	})
}

// BenchmarkUpdateBatch measures the batched single-sketch hot path:
// the same trace as BenchmarkFreqUpdate, applied in 4096-update batches
// through UpdateWeightedBatch. The delta over BenchmarkFreqUpdate is the
// amortized growth/decrement check and per-call overhead.
func BenchmarkUpdateBatch(b *testing.B) {
	stream := benchTrace(b)
	items := make([]int64, len(stream))
	weights := make([]int64, len(stream))
	for i, u := range stream {
		items[i], weights[i] = u.Item, u.Weight
	}
	s, err := New[int64](benchK, WithSeed(benchSeed), WithoutGrowth())
	if err != nil {
		b.Fatal(err)
	}
	const batchSize = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batchSize {
		lo := n % len(items)
		hi := min(lo+batchSize, len(items))
		if err := s.UpdateWeightedBatch(items[lo:hi], weights[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchConcurrent8 runs body under RunParallel pinned to 8 goroutines
// regardless of GOMAXPROCS, the acceptance configuration of the batched
// ingestion story.
func benchConcurrent8(b *testing.B, body func(pb *testing.PB)) {
	b.Helper()
	prev := runtime.GOMAXPROCS(0)
	b.SetParallelism((8 + prev - 1) / prev)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(body)
}

// BenchmarkConcurrentUpdate8 is the per-item baseline for the writer
// benchmark: 8 goroutines calling Concurrent.Update, one shard lock
// round trip per update.
func BenchmarkConcurrentUpdate8(b *testing.B) {
	stream := benchTrace(b)
	c, err := NewConcurrent[int64](8*benchK, WithShards(8), WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	benchConcurrent8(b, func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			u := stream[i%len(stream)]
			if err := c.Update(u.Item, u.Weight); err != nil {
				b.Error(err) // Fatal is not allowed off the benchmark goroutine
				return
			}
			i++
		}
	})
}

// BenchmarkWriterConcurrent is the acceptance gate for the batched
// ingestion path: 8 goroutines each feeding the shared sketch through
// their own buffered Writer must run >= 2x faster per update than
// BenchmarkConcurrentUpdate8.
func BenchmarkWriterConcurrent(b *testing.B) {
	stream := benchTrace(b)
	c, err := NewConcurrent[int64](8*benchK, WithShards(8), WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	benchConcurrent8(b, func(pb *testing.PB) {
		w, err := NewWriter(c)
		if err != nil {
			b.Error(err) // Fatal is not allowed off the benchmark goroutine
			return
		}
		defer w.Close()
		i := 0
		for pb.Next() {
			u := stream[i%len(stream)]
			if err := w.Add(u.Item, u.Weight); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkFreqEstimate measures point-query cost through the facade on
// a full sketch.
func BenchmarkFreqEstimate(b *testing.B) {
	stream := benchTrace(b)
	s, err := New[int64](benchK, WithSeed(benchSeed), WithoutGrowth())
	if err != nil {
		b.Fatal(err)
	}
	for _, u := range stream {
		if err := s.Update(u.Item, u.Weight); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += s.Estimate(stream[i%len(stream)].Item)
	}
	_ = sink
}

// BenchmarkQueryTopK measures the read path of the query layer on a
// full sketch: a limited ordered query vs a streaming (OrderNone) scan —
// the shape behind `freq -top N` and the TOPK wire command.
func BenchmarkQueryTopK(b *testing.B) {
	stream := benchTrace(b)
	s, err := New[int64](benchK, WithSeed(benchSeed), WithoutGrowth())
	if err != nil {
		b.Fatal(err)
	}
	for _, u := range stream {
		if err := s.Update(u.Item, u.Weight); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rows := s.Query().Limit(10).Collect(); len(rows) != 10 {
				b.Fatal("short result")
			}
		}
	})
	b.Run("stream-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for range s.Query().OrderBy(OrderNone).Rows() {
				n++
			}
			if n == 0 {
				b.Fatal("empty scan")
			}
		}
	})
}

// BenchmarkConcurrentCachedView measures the epoch cache's effect on
// repeated Concurrent reads: "cached" re-reads an unchanged sketch (the
// merge is paid once, then amortized to zero), "invalidated" interleaves
// a write before every read (every read pays the O(shards*k) re-merge —
// the pre-cache behaviour).
func BenchmarkConcurrentCachedView(b *testing.B) {
	stream := benchTrace(b)
	newLoaded := func(b *testing.B) *Concurrent[int64] {
		c, err := NewConcurrent[int64](benchK, WithSeed(benchSeed), WithShards(8))
		if err != nil {
			b.Fatal(err)
		}
		for _, u := range stream[:200_000] {
			if err := c.Update(u.Item, u.Weight); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	// topK reads the way the wire server's TOPK does: the cached view,
	// then a limited query over it.
	topK := func(b *testing.B, c *Concurrent[int64]) {
		v, err := c.View()
		if err != nil {
			b.Fatal(err)
		}
		if rows := v.Query().Limit(10).Collect(); len(rows) != 10 {
			b.Fatal("short result")
		}
	}
	b.Run("cached", func(b *testing.B) {
		c := newLoaded(b)
		topK(b, c) // pay the first merge outside the loop
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			topK(b, c)
		}
	})
	b.Run("invalidated", func(b *testing.B) {
		c := newLoaded(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Update(int64(i), 1); err != nil {
				b.Fatal(err)
			}
			topK(b, c)
		}
	})
}
