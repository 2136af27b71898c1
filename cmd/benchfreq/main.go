// Command benchfreq runs the repository's canonical performance kernels
// — Update, UpdateBatch, Merge, Serialize/Deserialize, View, QueryTopK,
// ConcurrentTopK, ConcurrentTopKFlat, WindowedRotate, WindowedTopK,
// WindowedTopKLast, WindowedTopKLastFlat, StoreAppend, StoreQueryRange,
// StoreRangeTopK, TenantChurn, EstimateBatch, and the daemon-side network ingest pair
// ServerIngestText64/ServerIngestBinary64 — and emits the results
// as BENCH_core.json (the
// machine-readable perf trajectory committed at the repo root) plus a
// benchstat-compatible text file for regression comparisons in CI.
//
// For the kernels the bulk engine rewrote, the replay-based baselines
// (core.MergeReplay, core.DeserializeReplay) run alongside, so one
// invocation captures baseline and post-change numbers and the
// merge/deserialize speedup ratios the PR acceptance tracks. The ingest
// pair likewise runs text and binary framing against the same live
// server, producing the server_ingest_binary speedup ratio.
//
//	go run ./cmd/benchfreq -benchtime 1s -out BENCH_core.json -txt BENCH_core.txt
//
// With -loadgen it instead runs as a standalone load generator: a fleet
// of concurrent client connections streaming batches at a freqd-style
// server (an in-process one when -addr is empty), reporting daemon-side
// items/sec:
//
//	go run ./cmd/benchfreq -loadgen -conns 256 -duration 5s -wire binary
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/freq"
	"repro/freq/server"
	"repro/freq/store"
	"repro/freq/tenant"
	"repro/internal/core"
	"repro/internal/streamgen"
)

// kernel is one named benchmark.
type kernel struct {
	name string
	fn   func(b *testing.B)
}

// result is one kernel's measurement in the JSON trajectory.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type report struct {
	GoVersion          string             `json:"go_version"`
	GOOS               string             `json:"goos"`
	GOARCH             string             `json:"goarch"`
	GOMAXPROCS         int                `json:"gomaxprocs"`
	NumCPU             int                `json:"num_cpu"`
	Benchtime          string             `json:"benchtime"`
	GeneratedAt        string             `json:"generated_at"`
	Results            []result           `json:"results"`
	Speedups           map[string]float64 `json:"speedups_vs_replay"`
	SerializeAllocsPer int64              `json:"serialize_allocs_per_op"`
}

const (
	updateK    = 4096
	mergeSrcK  = 1 << 16
	mergeDstK  = 1 << 17
	serialK    = 1 << 14
	streamLen  = 1 << 19
	batchChunk = 4096
)

// synthItem is a cheap deterministic item generator (splitmix-style
// scramble of the index over a skewless domain; kernel costs here do not
// depend on the weight distribution).
func synthItem(i int64, domain int64) int64 {
	x := uint64(i) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return int64(x % uint64(domain))
}

func mustSketch(opts core.Options) *core.Sketch {
	s, err := core.NewWithOptions(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// builtSketch returns a sketch of budget k filled with n synthetic
// updates over the given domain.
func builtSketch(k int, n int64, domain int64, seed uint64) *core.Sketch {
	s := mustSketch(core.Options{MaxCounters: k, Seed: seed, DisableGrowth: true})
	for i := int64(0); i < n; i++ {
		if err := s.Update(synthItem(i, domain), i%100+1); err != nil {
			panic(err)
		}
	}
	return s
}

// mergeSrc fills ~90% of a mergeSrcK budget with distinct keys — the
// coordinator fan-in shape of the sharded View and the cluster Refresh.
func mergeSrc() *core.Sketch {
	s := mustSketch(core.Options{MaxCounters: mergeSrcK, Seed: 0xBE, DisableGrowth: true})
	for i := int64(0); i < mergeSrcK*9/10; i++ {
		if err := s.Update(i, i%100+1); err != nil {
			panic(err)
		}
	}
	return s
}

func kernels() []kernel {
	return []kernel{
		{"Update", func(b *testing.B) {
			s := mustSketch(core.Options{MaxCounters: updateK, Seed: 1, DisableGrowth: true})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Update(synthItem(int64(i)&(streamLen-1), 1<<16), 1)
			}
		}},
		{"UpdateBatch", func(b *testing.B) {
			s := mustSketch(core.Options{MaxCounters: updateK, Seed: 2, DisableGrowth: true})
			items := make([]int64, batchChunk)
			for i := range items {
				items[i] = synthItem(int64(i), 1<<16)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += len(items) {
				s.UpdateBatch(items)
			}
		}},
		{"Merge", func(b *testing.B) {
			src := mergeSrc()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst := mustSketch(core.Options{MaxCounters: mergeDstK, Seed: 3, DisableGrowth: true})
				b.StartTimer()
				dst.Merge(src)
			}
		}},
		{"MergeReplay", func(b *testing.B) {
			src := mergeSrc()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst := mustSketch(core.Options{MaxCounters: mergeDstK, Seed: 4, DisableGrowth: true})
				b.StartTimer()
				core.MergeReplay(dst, src)
			}
		}},
		{"Serialize", func(b *testing.B) {
			s := builtSketch(serialK, streamLen, 1<<18, 5)
			buf := make([]byte, 0, s.SerializedSizeBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.AppendTo(buf[:0])
			}
		}},
		{"Deserialize", func(b *testing.B) {
			blob := builtSketch(serialK, streamLen, 1<<18, 6).Serialize()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Deserialize(blob); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"DeserializeReplay", func(b *testing.B) {
			blob := builtSketch(serialK, streamLen, 1<<18, 7).Serialize()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.DeserializeReplay(blob); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"DeserializeInto", func(b *testing.B) {
			blob := builtSketch(serialK, streamLen, 1<<18, 8).Serialize()
			dst := new(core.Sketch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := core.DeserializeInto(dst, blob); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"View", func(b *testing.B) {
			sk, err := freq.NewConcurrent[int64](16384, freq.WithShards(8))
			if err != nil {
				b.Fatal(err)
			}
			for i := int64(0); i < 500_000; i++ {
				_ = sk.Update(synthItem(i, 1<<14), i%23+1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_ = sk.Update(int64(i), 1) // invalidate: every iteration pays a rebuild
				b.StartTimer()
				if _, err := sk.View(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"QueryTopK", func(b *testing.B) {
			s, err := freq.New[int64](16384, freq.WithSeed(9))
			if err != nil {
				b.Fatal(err)
			}
			for i := int64(0); i < 500_000; i++ {
				_ = s.Update(synthItem(i, 1<<14), i%23+1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rows := s.Query().Limit(64).Collect(); len(rows) == 0 {
					b.Fatal("no rows")
				}
			}
		}},
		{"ConcurrentTopK", func(b *testing.B) {
			// The all-time TOPK 64 read over a full 8-shard sketch of a
			// Zipf 1.1 packet trace: each shard lists its 65 largest
			// counters and those hold the top 64, so an op merges
			// nothing.
			benchConcurrentTopK(b, true)
		}},
		{"ConcurrentTopKFlat", func(b *testing.B) {
			// The same read over flat unit weights: the shards' lists tie
			// at their cuts, so an op rebuilds the merged view and scans
			// it.
			benchConcurrentTopK(b, false)
		}},
		{"WindowedRotate", func(b *testing.B) {
			// Steady-state rotation of a warm 60-interval ring: the
			// retired slot's table is recycled in place, so an op is one
			// O(table) state clear and zero allocations.
			cw, err := freq.NewConcurrentWindowed[int64](updateK, 60, freq.WithSeed(11))
			if err != nil {
				b.Fatal(err)
			}
			items := make([]int64, batchChunk)
			for i := range items {
				items[i] = synthItem(int64(i), 1<<12)
			}
			for r := 0; r < 61; r++ { // wrap the ring so every slot is warm
				cw.UpdateBatch(items)
				cw.Rotate()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cw.Rotate()
			}
		}},
		{"WindowedTopK", func(b *testing.B) {
			// Worst-case windowed read: every op invalidates the merged-view
			// cache, so it pays the full 60-way bulk re-merge plus the
			// top-k extraction (cached reads are ~QueryTopK).
			cw, err := freq.NewConcurrentWindowed[int64](updateK, 60, freq.WithSeed(12))
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < 60; r++ {
				for j := 0; j < 2048; j++ {
					if err := cw.Update(synthItem(int64(r*2048+j), 1<<14), int64(j%100+1)); err != nil {
						b.Fatal(err)
					}
				}
				if r < 59 {
					cw.Rotate()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cw.UpdateOne(synthItem(int64(i), 1<<14))
				b.StartTimer()
				if rows := cw.Query().Limit(64).Collect(); len(rows) == 0 {
					b.Fatal("no rows")
				}
			}
		}},
		{"WindowedTopKLast", func(b *testing.B) {
			// The dashboard read, WIN 5 TOPK 64, over five full slots of
			// a Zipf 1.1 stream: the top 64 certify from each slot's 128
			// largest counters, so an op scans the head (the sealed
			// slots' lists are kept) and merges nothing.
			benchTopKLast(b, true)
		}},
		{"WindowedTopKLastFlat", func(b *testing.B) {
			// The same read over a flat stream: the certificate fails, so
			// an op pays the head scan and then the five-way merge.
			benchTopKLast(b, false)
		}},
		{"StoreAppend", func(b *testing.B) {
			// Steady-state durable-store append: one retired slot encoded
			// (alloc-free AppendBinary), LZ-compressed into the store's
			// reused buffer, and written into the open partition. The
			// partition roll and manifest commit happen once, before the
			// timer; the per-op path allocates nothing.
			dir, err := os.MkdirTemp("", "benchfreq-store")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			st, err := store.Open[int64](dir, store.WithPartitionDuration(24*time.Hour))
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			sk, err := freq.New[int64](512, freq.WithSeed(13))
			if err != nil {
				b.Fatal(err)
			}
			for i := int64(0); i < 2000; i++ {
				_ = sk.Update(synthItem(i, 256), i%100+1)
			}
			v := freq.NewView(sk)
			base := time.Unix(1_700_000_000, 0)
			if err := st.AppendSlot(v, base, base.Add(time.Millisecond)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := base.Add(time.Duration(i+1) * time.Millisecond)
				if err := st.AppendSlot(v, start, start.Add(time.Millisecond)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"StoreQueryRange", func(b *testing.B) {
			// Steady-state historical range query: 240 persisted slots
			// across 4 partitions decode through pooled scratch sketches
			// (DeserializeInto table recycling) on the worker pool and fold
			// into a reused accumulator (QueryInto + Clear). After the
			// first query warms the pools, an op allocates nothing.
			dir, err := os.MkdirTemp("", "benchfreq-store")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			st, err := store.Open[int64](dir, store.WithPartitionDuration(time.Minute))
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			sk, err := freq.New[int64](512, freq.WithSeed(14))
			if err != nil {
				b.Fatal(err)
			}
			for i := int64(0); i < 2000; i++ {
				_ = sk.Update(synthItem(i, 256), i%100+1)
			}
			v := freq.NewView(sk)
			base := time.Unix(1_700_000_000, 0)
			const slots = 240
			for s := 0; s < slots; s++ {
				start := base.Add(time.Duration(s) * time.Second)
				if err := st.AppendSlot(v, start, start.Add(time.Second)); err != nil {
					b.Fatal(err)
				}
			}
			from, to := base, base.Add(slots*time.Second)
			acc, err := st.QueryInto(nil, from, to) // warm pools and accumulator
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc, err = st.QueryInto(acc, from, to)
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"StoreRangeTopK", func(b *testing.B) {
			// The history read, RANGE over the last 15 minutes TOPK 64:
			// 15 full k = 4096 one-minute slots of a Zipf 1.1 packet
			// trace in one 1 h LZ partition, decoded and folded into a
			// reused accumulator (QueryInto), then ranked
			// (Query().Limit(64)), as freqd's readRange does.
			benchStoreRangeTopK(b)
		}},
		{"ServerIngestText64", func(b *testing.B) {
			benchServerIngest(b, 64, false)
		}},
		{"ServerIngestBinary64", func(b *testing.B) {
			benchServerIngest(b, 64, true)
		}},
		{"TenantChurn", func(b *testing.B) {
			// Steady-state tenant lifecycle: acquire (recreating from the
			// warm pool), ingest, release, evict. After one priming cycle
			// seeds the pool, the loop must allocate nothing — eviction
			// recycles the tenant's sketch tables in place and the
			// map-tombstone reuse keeps the registry itself quiet. The
			// kernel hard-fails if the warm path allocates, so a pooling
			// regression breaks the bench run, not just the numbers.
			mgr, err := tenant.New[int64](tenant.Config{MaxCounters: 512, Shards: 2, MaxTenants: 64})
			if err != nil {
				b.Fatal(err)
			}
			churn := func() {
				ten, err := mgr.Acquire("bench-tenant")
				if err != nil {
					b.Fatal(err)
				}
				if err := ten.Update(7, 100); err != nil {
					b.Fatal(err)
				}
				ten.Release()
				if err := mgr.Evict("bench-tenant"); err != nil {
					b.Fatal(err)
				}
			}
			churn() // prime the warm pool
			if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
				b.Fatalf("warm tenant churn allocates %.1f allocs/op, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn()
			}
		}},
		{"EstimateBatch", func(b *testing.B) {
			s := builtSketch(1<<17, streamLen, 1<<17, 10)
			items := make([]int64, 1<<14)
			for i := range items {
				items[i] = synthItem(int64(i)*3, 1<<18)
			}
			dst := make([]int64, len(items))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = s.EstimateBatch(items, dst)
			}
		}},
	}
}

// benchTopKLast times ConcurrentWindowed.TopKLast(5, 64) on five full
// slots of budget 24576 (the dashboard geometry), filled from a Zipf
// 1.1 stream when skewed, else from a flat one. Every op follows a
// write, as a live window's reads do, so no merge is served from the
// view cache.
func benchTopKLast(b *testing.B, skewed bool) {
	const k, slots, perSlot, universe = 24576, 5, 1 << 16, 1 << 20
	cw, err := freq.NewConcurrentWindowed[int64](k, slots, freq.WithSeed(15))
	if err != nil {
		b.Fatal(err)
	}
	items := make([]int64, slots*perSlot)
	weights := make([]int64, len(items))
	if skewed {
		stream, err := streamgen.ZipfStream(1.1, universe, len(items), 100, 16)
		if err != nil {
			b.Fatal(err)
		}
		for i, u := range stream {
			items[i], weights[i] = u.Item, u.Weight
		}
	} else {
		for i := range items {
			items[i], weights[i] = synthItem(int64(i), universe), int64(i%100+1)
		}
	}
	for s := range slots {
		if err := cw.UpdateWeightedBatch(items[s*perSlot:(s+1)*perSlot], weights[s*perSlot:(s+1)*perSlot]); err != nil {
			b.Fatal(err)
		}
		if s < slots-1 {
			cw.Rotate()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cw.UpdateOne(items[i%len(items)])
		b.StartTimer()
		if rows := cw.TopKLast(slots, 64); len(rows) != 64 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// benchStoreRangeTopK times the RANGE TOPK 64 read over 15 stored
// slots shaped like the history workload's: each summarizes 64k
// consecutive pairs of a packet trace at budget 4096, and all sit in
// one 1 h partition, so the read decodes and folds every block on the
// calling goroutine.
func benchStoreRangeTopK(b *testing.B) {
	const slots, k, perSlot = 15, 4096, 1 << 16
	dir, err := os.MkdirTemp("", "benchfreq-store")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open[int64](dir, store.WithPartitionDuration(time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	trace, err := streamgen.PacketTrace(streamgen.TraceConfig{Packets: slots * perSlot, DistinctSources: 1 << 20, Alpha: 1.1, Seed: 19})
	if err != nil {
		b.Fatal(err)
	}
	items := make([]int64, len(trace))
	weights := make([]int64, len(trace))
	for i, u := range trace {
		items[i], weights[i] = u.Item, u.Weight
	}
	base := time.Unix(1_700_006_400, 0) // an hour boundary
	for s := range slots {
		sk, serr := freq.New[int64](k)
		if serr != nil {
			b.Fatal(serr)
		}
		if err := sk.UpdateWeightedBatch(items[s*perSlot:(s+1)*perSlot], weights[s*perSlot:(s+1)*perSlot]); err != nil {
			b.Fatal(err)
		}
		start := base.Add(time.Duration(s) * time.Minute)
		if err := st.AppendSlot(freq.NewView(sk), start, start.Add(time.Minute)); err != nil {
			b.Fatal(err)
		}
	}
	from, to := base, base.Add(slots*time.Minute)
	acc, err := st.QueryInto(nil, from, to) // warm pools and accumulator
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if acc, err = st.QueryInto(acc, from, to); err != nil {
			b.Fatal(err)
		}
		if rows := freq.NewView(acc).Query().Limit(64).Collect(); len(rows) != 64 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// benchConcurrentTopK times Concurrent.Query().Limit(64) on a full
// 24576-counter sketch over 8 shards (the ingest geometry), filled from
// a Zipf 1.1 packet trace when skewed, else from distinct unit items,
// so every counter ties. Every op follows a write, as a live server's
// reads do, so no read is served from the view cache; the flat op
// writes an item new to the sketch, which keeps the ties. The run fails
// unless every skewed read merged nothing and every flat one merged the
// view.
func benchConcurrentTopK(b *testing.B, skewed bool) {
	const k, shards, n = 24576, 8, 1 << 20
	c, err := freq.NewConcurrent[int64](k, freq.WithShards(shards), freq.WithSeed(17))
	if err != nil {
		b.Fatal(err)
	}
	items := make([]int64, n)
	weights := make([]int64, n)
	if skewed {
		trace, err := streamgen.PacketTrace(streamgen.TraceConfig{Packets: n, DistinctSources: 1 << 18, Alpha: 1.1, Seed: 18})
		if err != nil {
			b.Fatal(err)
		}
		for i, u := range trace {
			items[i], weights[i] = u.Item, u.Weight
		}
	} else {
		for i := range items {
			items[i], weights[i] = int64(i), 1
		}
	}
	if err := c.UpdateWeightedBatch(items, weights); err != nil {
		b.Fatal(err)
	}
	merges := c.ViewMerges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if skewed {
			_ = c.Update(items[i%n], weights[i%n])
		} else {
			_ = c.Update(int64(n+i), 1)
		}
		b.StartTimer()
		if rows := c.Query().Limit(64).Collect(); len(rows) != 64 {
			b.Fatalf("%d rows", len(rows))
		}
	}
	b.StopTimer()
	want := int64(0)
	if !skewed {
		want = int64(b.N) * shards
	}
	if got := c.ViewMerges() - merges; got != want {
		b.Fatalf("%d reads merged %d shards, want %d", b.N, got, want)
	}
}

// benchServerIngest measures daemon-side ingest through the wire
// protocol: conns concurrent clients stream batchChunk-item batches at
// a live in-process TCP server until b.N items have landed, over text
// UB blocks or binary pairs frames. ns/op is ns per ingested item,
// end to end (client encode + kernel + server decode + apply).
func benchServerIngest(b *testing.B, conns int, bin bool) {
	srv, err := server.New(server.Config{MaxCounters: updateK, Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	items := make([]int64, batchChunk)
	weights := make([]int64, batchChunk)
	for i := range items {
		items[i] = synthItem(int64(i), 1<<16)
		weights[i] = int64(i%100 + 1)
	}
	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	errCh := make(chan error, conns)
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var opts []server.ClientOption
			if bin {
				opts = append(opts, server.WithBinary())
			}
			c, err := server.Dial[int64](ln.Addr().String(), opts...)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			if bin != c.Binary() {
				errCh <- fmt.Errorf("negotiated framing binary=%v, want %v", c.Binary(), bin)
				return
			}
			for {
				left := remaining.Add(-batchChunk) + batchChunk
				if left <= 0 {
					return
				}
				chunk := min(int64(batchChunk), left)
				if err := c.UpdateBatch(items[:chunk], weights[:chunk]); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errCh:
		b.Fatal(err)
	default:
	}
}

// runLoadgen drives a fleet of concurrent client connections at a
// server for a fixed duration and reports daemon-side items/sec. With
// an empty addr it boots an in-process server, so the rate comes from
// the server's own update counter; against a remote daemon it reports
// the client-side count (a lower bound on what the daemon saw).
func runLoadgen(addr string, conns int, dur time.Duration, batch int, wire string) error {
	var srv *server.Server
	if addr == "" {
		var err error
		srv, err = server.New(server.Config{MaxCounters: updateK, Shards: 8})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(ln)
		defer srv.Close()
		addr = ln.Addr().String()
	}

	var opts []server.ClientOption
	switch wire {
	case "binary", "auto":
		opts = append(opts, server.WithBinary())
	case "text":
	default:
		return fmt.Errorf("bad -wire %q (want binary, text, or auto)", wire)
	}

	items := make([]int64, batch)
	weights := make([]int64, batch)
	for i := range items {
		items[i] = synthItem(int64(i), 1<<16)
		weights[i] = 1
	}
	var sent atomic.Int64
	var binConns atomic.Int64
	errCh := make(chan error, conns)
	deadline := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := server.Dial[int64](addr, opts...)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			if wire == "binary" && !c.Binary() {
				errCh <- fmt.Errorf("server declined binary framing")
				return
			}
			if c.Binary() {
				binConns.Add(1)
			}
			for time.Now().Before(deadline) {
				if err := c.UpdateBatch(items, weights); err != nil {
					errCh <- err
					return
				}
				sent.Add(int64(batch))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return err
	default:
	}

	n := sent.Load()
	side := "client"
	if srv != nil {
		// Daemon-side truth: what the server actually applied.
		n, _ = srv.Counters()
		side = "daemon"
	}
	fmt.Printf("loadgen: conns=%d (binary=%d) wire=%s batch=%d duration=%s %s-side items=%d rate=%.0f items/sec\n",
		conns, binConns.Load(), wire, batch, elapsed.Round(time.Millisecond), side, n, float64(n)/elapsed.Seconds())
	return nil
}

func main() {
	// testing.Init registers the test.* flags; without it the benchtime
	// override below would silently no-op and every kernel would run at
	// the 1s default.
	testing.Init()
	benchtime := flag.Duration("benchtime", time.Second, "minimum run time per kernel")
	out := flag.String("out", "BENCH_core.json", "JSON output path ('' to skip)")
	txt := flag.String("txt", "BENCH_core.txt", "benchstat-compatible output path ('' to skip)")
	loadgen := flag.Bool("loadgen", false, "run as a load generator instead of the kernel suite")
	addr := flag.String("addr", "", "loadgen: server address (empty boots an in-process server)")
	conns := flag.Int("conns", 256, "loadgen: concurrent client connections")
	duration := flag.Duration("duration", 5*time.Second, "loadgen: run length")
	batch := flag.Int("batch", batchChunk, "loadgen: items per batch")
	wire := flag.String("wire", "binary", "loadgen: framing (binary, text, or auto)")
	flag.Parse()

	if *loadgen {
		if err := runLoadgen(*addr, *conns, *duration, *batch, *wire); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if f := flag.Lookup("test.benchtime"); f != nil {
		if err := f.Value.Set(benchtime.String()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	rep := report{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Benchtime:   benchtime.String(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Speedups:    map[string]float64{},
	}
	nsPerOp := map[string]float64{}

	var text []byte
	text = append(text, fmt.Sprintf("goos: %s\ngoarch: %s\npkg: repro/cmd/benchfreq\n", runtime.GOOS, runtime.GOARCH)...)
	for _, k := range kernels() {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			k.fn(b)
		})
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		nsPerOp[k.name] = ns
		rep.Results = append(rep.Results, result{
			Name:        k.name,
			Iterations:  res.N,
			NsPerOp:     ns,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
		line := fmt.Sprintf("Benchmark%s \t%s\t%s\n", k.name, res.String(), res.MemString())
		text = append(text, line...)
		fmt.Fprintf(os.Stderr, "%s", line)
		if k.name == "Serialize" {
			rep.SerializeAllocsPer = res.AllocsPerOp()
		}
	}
	if base, ok := nsPerOp["MergeReplay"]; ok && nsPerOp["Merge"] > 0 {
		rep.Speedups["merge"] = base / nsPerOp["Merge"]
	}
	if base, ok := nsPerOp["DeserializeReplay"]; ok {
		if nsPerOp["Deserialize"] > 0 {
			rep.Speedups["deserialize"] = base / nsPerOp["Deserialize"]
		}
		if nsPerOp["DeserializeInto"] > 0 {
			rep.Speedups["deserialize_into"] = base / nsPerOp["DeserializeInto"]
		}
	}
	// Daemon ingest throughput ratio: binary pairs frames vs text UB
	// blocks at the same connection fan-out (items/sec ratio is the
	// inverse of the ns/item ratio).
	if base, ok := nsPerOp["ServerIngestText64"]; ok && nsPerOp["ServerIngestBinary64"] > 0 {
		rep.Speedups["server_ingest_binary"] = base / nsPerOp["ServerIngestBinary64"]
	}
	fmt.Fprintf(os.Stderr, "speedups vs replay: %+v\n", rep.Speedups)

	if *txt != "" {
		if err := os.WriteFile(*txt, text, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
