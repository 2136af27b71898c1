package core

import (
	"fmt"
	"testing"

	"repro/internal/streamgen"
)

// Package-local microbenchmarks: per-operation costs of the sketch in
// isolation (the repository-root bench_test.go covers the paper's figures
// end to end).

func benchStream(b *testing.B, alpha float64) []streamgen.Update {
	b.Helper()
	stream, err := streamgen.ZipfStream(alpha, 1<<16, 1<<19, 10_000, 0xBE7C4)
	if err != nil {
		b.Fatal(err)
	}
	return stream
}

// BenchmarkUpdateSkew measures update cost across stream skews: low skew
// maximizes counter churn (more decrements), high skew is mostly counter
// hits.
func BenchmarkUpdateSkew(b *testing.B) {
	for _, alpha := range []float64{0.8, 1.1, 1.5} {
		stream := benchStream(b, alpha)
		b.Run(fmt.Sprintf("alpha=%.1f", alpha), func(b *testing.B) {
			s, err := NewWithOptions(Options{MaxCounters: 4096, Seed: 1, DisableGrowth: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := stream[i&(1<<19-1)]
				if err := s.Update(u.Item, u.Weight); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUpdateOne(b *testing.B) {
	stream := benchStream(b, 1.1)
	s, err := NewWithOptions(Options{MaxCounters: 4096, Seed: 2, DisableGrowth: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UpdateOne(stream[i&(1<<19-1)].Item)
	}
}

func BenchmarkEstimateHitAndMiss(b *testing.B) {
	stream := benchStream(b, 1.1)
	s, err := New(4096)
	if err != nil {
		b.Fatal(err)
	}
	for _, u := range stream {
		if err := s.Update(u.Item, u.Weight); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		var hits []int64
		for r := range s.All() {
			if hits = append(hits, r.Item); len(hits) == 64 {
				break
			}
		}
		b.ReportAllocs()
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += s.Estimate(hits[i&63])
		}
		_ = sink
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += s.Estimate(int64(i) | 1<<62)
		}
		_ = sink
	})
}

func BenchmarkMergeManySmallIntoLarge(b *testing.B) {
	// Amortized Algorithm 5 cost per counter: merge a full small summary
	// into a large one repeatedly (§3.2's many-small-into-one shape).
	small, err := NewWithOptions(Options{MaxCounters: 96, Seed: 3, DisableGrowth: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 10_000; i++ {
		_ = small.Update(i%200, i%37+1)
	}
	big, err := NewWithOptions(Options{MaxCounters: 24576, Seed: 4, DisableGrowth: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		big.Merge(small)
	}
}
