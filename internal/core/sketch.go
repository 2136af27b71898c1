// Package core implements the paper's primary contribution: the
// Reduce-By-Sample-Quantile extension of Misra–Gries to weighted streams
// (Algorithm 4, "SMED" at the default median quantile, "SMIN" at quantile
// zero) with the production engineering of §2.3 — a linear-probing
// parallel-array counter table, an offset variable giving SS-style upper
// estimates and MG-style zero estimates, ℓ = 1024 counter sampling, and the
// Algorithm 5 merge that replays one summary into another as weighted
// updates.
//
// The shape of the API follows the Apache DataSketches Frequent Items
// sketch that this paper describes (LongsSketch): int64 item identifiers,
// int64 non-negative weights, upper/lower bound point queries, and
// (φ, ε)-heavy-hitter extraction under either no-false-positives or
// no-false-negatives semantics.
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/hashmap"
	"repro/internal/xrand"
)

// DefaultSampleSize is ℓ, the number of counters sampled by
// DecrementCounters. §2.3.2: ℓ = 1024 guarantees the tail bound
// N^res(j)/(0.33k − j) with failure probability < 1.5e-8 for streams of
// weighted length up to 1e20.
const DefaultSampleSize = 1024

// MaxSampleSize caps ℓ. The sample buffer is allocated at full size, so
// a sample size read from outside the process (a snapshot header) must
// be bounded; 2^16 is 64 times the §2.3.2 choice.
const MaxSampleSize = 1 << 16

// DefaultQuantile is the sample quantile used for the decrement value.
// 0.5 (the sample median) is SMED, the paper's headline configuration;
// 0 (the sample minimum) is SMIN (§4).
const DefaultQuantile = 0.5

// MinCounters is the smallest supported counter budget
// (3/4 of the minimum 8-slot table).
const MinCounters = 6

// Options configures a Sketch beyond the counter budget.
type Options struct {
	// MaxCounters is k, the maximum number of tracked counters. The table
	// length is the smallest power of two with 3/4·L >= MaxCounters
	// (§2.3.3: L ≈ 4k/3 rounded up to a power of two).
	MaxCounters int
	// Quantile in (0, 1) selects the decrement value within the sample;
	// larger quantiles trade error for speed per §4.4. The zero value
	// selects DefaultQuantile (0.5, SMED). Use QuantileMin to request the
	// sample minimum (SMIN).
	Quantile float64
	// SampleSize is ℓ, at most MaxSampleSize; 0 means DefaultSampleSize.
	SampleSize int
	// Seed fixes the hash seed and sampling PRNG for reproducibility.
	// When zero, a per-sketch random seed is drawn, which also makes
	// merging safe against the §3.2 shared-hash-function caveat.
	Seed uint64
	// DisableGrowth starts the table at full size instead of growing from
	// a small table as items arrive (the DataSketches behaviour). Useful
	// for benchmarks isolating steady-state update cost.
	DisableGrowth bool
}

// globalSeedState provides per-sketch seeds when Options.Seed is zero.
// Sketches are not safe for concurrent use, but construction may race
// between goroutines (the distributed fan-out builds one sketch per
// node concurrently), so the draw is a lock-free SplitMix64: an atomic
// add of the golden-ratio increment followed by the Mix64 finalizer —
// the same sequence a SplitMix64 seeded with the initial state emits.
var globalSeedState atomic.Uint64

func init() {
	globalSeedState.Store(0x5eed5eed5eed5eed)
}

// nextGlobalSeed draws the next per-sketch seed; safe for concurrent use.
func nextGlobalSeed() uint64 {
	return xrand.Mix64(globalSeedState.Add(0x9e3779b97f4a7c15))
}

// Sketch is the weighted frequent-items summary. It is not safe for
// concurrent use; wrap it in a mutex or keep one per goroutine and Merge.
type Sketch struct {
	hm *hashmap.Map
	// spare is the table retired by the last DeserializeInto, kept so the
	// next decode of a same-shape blob can load into it and swap — the
	// all-or-nothing, allocation-free receiver path (see loadBody).
	spare       *hashmap.Map
	lgMaxLength int
	lgStart     int   // initial table size: MinLgLength, or lgMaxLength when growth is disabled
	offset      int64 // sum of all decrement values c* (§2.3.1)
	streamN     int64 // N, the weighted stream length
	decrements  int64 // number of DecrementCounters() operations (diagnostics)
	quantile    float64
	sampleSize  int
	seed        uint64
	rng         xrand.SplitMix64
	sampleBuf   []int64
}

// QuantileMin is the Options.Quantile sentinel requesting the sample
// minimum as the decrement value — the SMIN variant of §4.
const QuantileMin = -1.0

// New returns a sketch tracking up to maxCounters items, configured as
// SMED (median decrement quantile, ℓ = 1024, adaptive growth).
func New(maxCounters int) (*Sketch, error) {
	return NewWithOptions(Options{MaxCounters: maxCounters})
}

// NewSMIN returns a sketch that decrements by the sample minimum, the
// accuracy-first variant the paper recommends when space and error
// dominate speed concerns (§4.3).
func NewSMIN(maxCounters int) (*Sketch, error) {
	return NewWithOptions(Options{MaxCounters: maxCounters, Quantile: QuantileMin})
}

// NewWithOptions returns a sketch configured by opts.
func NewWithOptions(opts Options) (*Sketch, error) {
	if opts.MaxCounters < MinCounters {
		return nil, fmt.Errorf("core: MaxCounters %d < minimum %d", opts.MaxCounters, MinCounters)
	}
	q := opts.Quantile
	switch {
	case q == 0:
		q = DefaultQuantile
	case q == QuantileMin:
		q = 0
	case q < 0 || q >= 1:
		return nil, fmt.Errorf("core: quantile %v outside (0, 1) and not QuantileMin", opts.Quantile)
	}
	lgMax := lgLengthFor(opts.MaxCounters)
	if lgMax > hashmap.MaxLgLength {
		return nil, fmt.Errorf("core: MaxCounters %d needs table beyond 2^%d slots", opts.MaxCounters, hashmap.MaxLgLength)
	}
	sampleSize := opts.SampleSize
	if sampleSize == 0 {
		sampleSize = DefaultSampleSize
	}
	if sampleSize < 1 || sampleSize > MaxSampleSize {
		return nil, fmt.Errorf("core: SampleSize %d outside [1, %d]", sampleSize, MaxSampleSize)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = nextGlobalSeed()
	}
	lgCur := hashmap.MinLgLength
	if opts.DisableGrowth {
		lgCur = lgMax
	}
	hm, err := hashmap.New(lgCur, seed)
	if err != nil {
		return nil, err
	}
	return &Sketch{
		hm:          hm,
		lgMaxLength: lgMax,
		lgStart:     lgCur,
		quantile:    q,
		sampleSize:  sampleSize,
		seed:        seed,
		rng:         xrand.NewSplitMix64(seed ^ 0xa0761d6478bd642f),
		sampleBuf:   make([]int64, sampleSize),
	}, nil
}

// lgLengthFor returns the smallest lg table length whose 3/4 load supports
// maxCounters counters.
func lgLengthFor(maxCounters int) int {
	lg := hashmap.MinLgLength
	for int(float64(int(1)<<lg)*hashmap.LoadFactor) < maxCounters {
		lg++
	}
	return lg
}
