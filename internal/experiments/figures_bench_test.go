// Benchmarks regenerating the paper's evaluation figures under testing.B,
// one benchmark family per table/figure of §4, plus ablation benches for
// choices the paper fixes (sample size, table growth, merge order, load
// factor). Run with:
//
//	go test -bench=. -benchmem
//
// The experiment harness (cmd/experiments) reports the same workloads as
// whole-stream wall-clock tables; these benches expose per-update and
// per-merge costs with allocation accounting.
package experiments_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hashmap"
	"repro/internal/streamgen"
	"repro/internal/xrand"
)

// benchTrace is the shared CAIDA-like stream, generated once.
var benchTrace []streamgen.Update

func trace(b *testing.B) []streamgen.Update {
	b.Helper()
	if benchTrace == nil {
		var err error
		benchTrace, err = streamgen.PacketTrace(streamgen.TraceConfig{
			Packets:         1_000_000,
			DistinctSources: 1 << 17,
			Alpha:           1.1,
			Seed:            0xCA1DA,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return benchTrace
}

// benchKs is a laptop-scale subset of the paper's counter ladder.
var benchKs = []int{1536, 6144, 24576}

// BenchmarkFigure1Update measures per-update cost of the four Figure 1
// algorithms on the packet trace at equal counters.
func BenchmarkFigure1Update(b *testing.B) {
	stream := trace(b)
	for _, m := range experiments.FigureMakers() {
		for _, k := range benchKs {
			// RBMC at small k decrements on nearly every update; cap its
			// cost by skipping the largest k only if unbearably slow is
			// acceptable — the paper's point is exactly this gap, so run
			// everything.
			b.Run(fmt.Sprintf("%s/k=%d", m.Name, k), func(b *testing.B) {
				a := m.New(k)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					u := stream[i%len(stream)]
					a.Update(u.Item, u.Weight)
				}
			})
		}
	}
}

// BenchmarkFigure3Quantile measures per-update cost across the decrement
// quantile tradeoff of §4.4 at fixed k.
func BenchmarkFigure3Quantile(b *testing.B) {
	stream := trace(b)
	const k = 6144
	for _, q := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98} {
		b.Run(fmt.Sprintf("q=%.2f/k=%d", q, k), func(b *testing.B) {
			a := experiments.NewQuantile(k, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := stream[i%len(stream)]
				a.Update(u.Item, u.Weight)
			}
		})
	}
}

// figure4Pair builds one serialized pair of filled sketches per k so each
// benchmark iteration can restore pristine inputs cheaply off the clock.
func figure4Pair(b *testing.B, k int) ([]byte, []byte) {
	b.Helper()
	blobs := make([][]byte, 2)
	for i := range blobs {
		s, err := core.NewWithOptions(core.Options{MaxCounters: k, Seed: uint64(i) + 1, DisableGrowth: true})
		if err != nil {
			b.Fatal(err)
		}
		stream, err := streamgen.ZipfStream(1.05, 1<<17, 300_000, 10_000, uint64(100+i))
		if err != nil {
			b.Fatal(err)
		}
		for _, u := range stream {
			if err := s.Update(u.Item, u.Weight); err != nil {
				b.Fatal(err)
			}
		}
		blobs[i] = s.Serialize()
	}
	return blobs[0], blobs[1]
}

// BenchmarkFigure4Merge measures one merge of two filled k-counter
// sketches for each of the three §4.5 procedures.
func BenchmarkFigure4Merge(b *testing.B) {
	methods := []struct {
		name string
		run  func(x, y *core.Sketch) *core.Sketch
	}{
		{"Ours", func(x, y *core.Sketch) *core.Sketch { return x.Merge(y) }},
		{"ACH+13", core.MergeACH},
		{"Hoa61", core.MergeQuickselect},
	}
	for _, m := range methods {
		for _, k := range benchKs {
			b.Run(fmt.Sprintf("%s/k=%d", m.name, k), func(b *testing.B) {
				blobA, blobB := figure4Pair(b, k)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					x, err := core.Deserialize(blobA)
					if err != nil {
						b.Fatal(err)
					}
					y, err := core.Deserialize(blobB)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					m.run(x, y)
				}
			})
		}
	}
}

// BenchmarkAblationSampleSize sweeps ℓ (§2.3.2 fixes 1024) to expose the
// decrement-cost/accuracy knob.
func BenchmarkAblationSampleSize(b *testing.B) {
	stream := trace(b)
	for _, l := range []int{16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			s, err := core.NewWithOptions(core.Options{
				MaxCounters: 6144, Seed: 0xAB1A, SampleSize: l, DisableGrowth: true,
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
		})
	}
}

// BenchmarkAblationGrowth compares adaptive table growth against starting
// at full size: growth wins when streams may be small, fixed wins a few
// percent of steady-state throughput.
func BenchmarkAblationGrowth(b *testing.B) {
	stream := trace(b)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"grow", false}, {"fixed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := core.NewWithOptions(core.Options{
				MaxCounters: 24576, Seed: 0x60, DisableGrowth: mode.disable,
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
		})
	}
}

// BenchmarkAblationMergeOrder demonstrates the §3.2 note at the data-
// structure level: replaying one table into another that shares its hash
// function in table order piles keys into long probe runs, while the
// randomized order (and independent seeds) do not.
func BenchmarkAblationMergeOrder(b *testing.B) {
	// Both tables share hash seed 42 but hold disjoint key sets, each at
	// half capacity, so the merged table lands at ~full load. With the
	// shared hash function, src's table order IS ascending home order in
	// dst — the §3.2 "overpopulate the front" configuration.
	build := func(base int64) *hashmap.Map {
		m, err := hashmap.New(15, 42)
		if err != nil {
			b.Fatal(err)
		}
		for i := int64(0); m.NumActive() < m.Capacity()/2; i++ {
			m.Adjust(base+i*0x9e37, 1)
		}
		return m
	}
	for _, mode := range []struct {
		name     string
		shuffled bool
	}{{"in-order-shared-seed", false}, {"shuffled-shared-seed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			rng := xrand.NewSplitMix64(7)
			b.ReportAllocs()
			maxProbe := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst := build(0)
				src := build(1 << 40)
				b.StartTimer()
				feed := func(k, v int64) bool {
					dst.Adjust(k, v)
					return true
				}
				if mode.shuffled {
					src.RangeShuffled(&rng, feed)
				} else {
					src.Range(feed)
				}
				b.StopTimer()
				if d := dst.MaxProbeDistance(); d > maxProbe {
					maxProbe = d
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(maxProbe), "max-probe")
		})
	}
}

// BenchmarkAblationLoadFactor sweeps the table load factor around the
// §2.3.3 choice of 3/4: higher loads shrink memory but lengthen probe
// runs in the adjust/lookup hot path and slow the purge's run compaction.
func BenchmarkAblationLoadFactor(b *testing.B) {
	for _, load := range []float64{0.50, 0.66, 0.75, 0.875} {
		b.Run(fmt.Sprintf("load=%.2f", load), func(b *testing.B) {
			m, err := hashmap.NewWithLoadFactor(15, 0xF00D, load)
			if err != nil {
				b.Fatal(err)
			}
			// Steady state: table at capacity, mixed hit/miss adjusts
			// with periodic decrement-and-purge, mimicking the sketch's
			// workload at this load.
			for i := int64(0); m.NumActive() < m.Capacity(); i++ {
				m.Adjust(i*0x9e3779b9, 4)
			}
			rng := xrand.NewSplitMix64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Adjust(int64(rng.Uint64()>>24), 4)
				if m.NumActive() > m.Capacity() {
					m.DecrementAndPurge(2)
				}
			}
		})
	}
}

// BenchmarkSerialize measures the wire-format cost for the §3
// distributed-merge scenario.
func BenchmarkSerialize(b *testing.B) {
	s, err := core.NewWithOptions(core.Options{MaxCounters: 24576, Seed: 0x5E, DisableGrowth: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, u := range trace(b)[:500_000] {
		if err := s.Update(u.Item, u.Weight); err != nil {
			b.Fatal(err)
		}
	}
	blob := s.Serialize()
	b.Run("serialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blob = s.Serialize()
		}
	})
	b.Run("deserialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Deserialize(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPointQuery measures Estimate cost on a full sketch.
func BenchmarkPointQuery(b *testing.B) {
	stream := trace(b)
	s, err := core.New(24576)
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
