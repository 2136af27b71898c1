// Package items provides the generic-item counterpart of the core int64
// sketch — the analogue of the Apache DataSketches ItemsSketch<T> built on
// the same Algorithm 4: weighted updates in amortized constant time,
// decrement by a sample quantile, offset-based hybrid estimates, and the
// Algorithm 5 replay merge.
//
// Where the core sketch squeezes items into the §2.3.3 parallel-array
// table, this sketch accepts any comparable Go type (strings, tuples,
// netip.Addr, ...) and stores counters in a Go map. That costs roughly 3x
// the memory per counter and some constant-factor speed, which is exactly
// the trade the DataSketches library offers between its LongsSketch and
// ItemsSketch.
package items

import (
	"fmt"
	"iter"

	"repro/internal/qselect"
)

// DefaultSampleSize is ℓ (§2.3.2).
const DefaultSampleSize = 1024

// Sketch is a weighted frequent-items summary over items of type T.
// It is not safe for concurrent use.
type Sketch[T comparable] struct {
	counters   map[T]int64
	k          int
	offset     int64
	streamN    int64
	quantile   float64
	sampleSize int
	sampleBuf  []int64
}

// New returns a sketch tracking up to maxCounters items with the SMED
// median decrement.
func New[T comparable](maxCounters int) (*Sketch[T], error) {
	return NewWithQuantile[T](maxCounters, 0.5)
}

// NewWithQuantile returns a sketch with an explicit decrement quantile in
// [0, 1); 0 decrements by the sample minimum (SMIN).
func NewWithQuantile[T comparable](maxCounters int, quantile float64) (*Sketch[T], error) {
	return NewWithConfig[T](maxCounters, quantile, DefaultSampleSize)
}

// NewWithConfig returns a sketch with an explicit decrement quantile in
// [0, 1) (0 is SMIN) and sample size ℓ.
func NewWithConfig[T comparable](maxCounters int, quantile float64, sampleSize int) (*Sketch[T], error) {
	if maxCounters < 1 {
		return nil, fmt.Errorf("items: maxCounters %d must be positive", maxCounters)
	}
	if quantile < 0 || quantile >= 1 {
		return nil, fmt.Errorf("items: quantile %v outside [0, 1)", quantile)
	}
	if sampleSize < 1 {
		return nil, fmt.Errorf("items: sampleSize %d < 1", sampleSize)
	}
	return &Sketch[T]{
		counters:   make(map[T]int64, maxCounters+1),
		k:          maxCounters,
		quantile:   quantile,
		sampleSize: sampleSize,
		sampleBuf:  make([]int64, sampleSize),
	}, nil
}

// Update processes the weighted update (item, weight); negative weights
// are rejected.
func (s *Sketch[T]) Update(item T, weight int64) error {
	if weight < 0 {
		return fmt.Errorf("items: negative weight %d", weight)
	}
	if weight == 0 {
		return nil
	}
	s.streamN += weight
	s.counters[item] += weight
	if len(s.counters) > s.k {
		s.decrementCounters()
	}
	return nil
}

// UpdateOne processes a unit update.
func (s *Sketch[T]) UpdateOne(item T) { _ = s.Update(item, 1) }

// UpdateBatch processes a slice of unit-weight updates, equivalent to an
// UpdateOne loop with the decrement check amortized across the batch.
func (s *Sketch[T]) UpdateBatch(items []T) {
	s.updateBatch(items, nil)
}

// UpdateWeightedBatch processes the weighted updates (items[i],
// weights[i]) in order, equivalent to an Update loop with the decrement
// check amortized across the batch. The slices must have equal length.
// Unlike an Update loop, validation is all-or-nothing: a negative weight
// anywhere in the batch rejects the whole batch before any update is
// applied. Zero weights are skipped as in Update.
func (s *Sketch[T]) UpdateWeightedBatch(items []T, weights []int64) error {
	if len(items) != len(weights) {
		return fmt.Errorf("items: batch length mismatch: %d items, %d weights", len(items), len(weights))
	}
	for _, w := range weights {
		if w < 0 {
			return fmt.Errorf("items: negative weight %d in batch", w)
		}
	}
	s.updateBatch(items, weights)
	return nil
}

// updateBatch applies the batch in headroom-sized chunks: with
// h = k - len(counters) free counters the decrement condition cannot
// become true within the next h updates, so they run without per-item
// checks and the decrement fires at exactly the per-item loop's points.
// A nil weights slice means all-unit weights, assumed validated.
func (s *Sketch[T]) updateBatch(items []T, weights []int64) {
	i := 0
	for i < len(items) {
		chunk := s.k - len(s.counters)
		if chunk < 1 {
			chunk = 1
		}
		if rem := len(items) - i; chunk > rem {
			chunk = rem
		}
		if weights == nil {
			for _, item := range items[i : i+chunk] {
				s.streamN++
				s.counters[item]++
			}
		} else {
			for j, item := range items[i : i+chunk] {
				w := weights[i+j]
				if w == 0 {
					continue
				}
				s.streamN += w
				s.counters[item] += w
			}
		}
		i += chunk
		if len(s.counters) > s.k {
			s.decrementCounters()
		}
	}
}

// decrementCounters samples counter values, decrements every counter by
// the sample quantile, and deletes the non-positive ones. Go randomizes
// map iteration order per range statement, so taking the first ℓ values
// of an iteration is a uniform-ish sample over counters — the same role
// the random-slot probe plays in the core sketch.
func (s *Sketch[T]) decrementCounters() {
	n := 0
	for _, v := range s.counters {
		s.sampleBuf[n] = v
		n++
		if n == s.sampleSize {
			break
		}
	}
	if n == 0 {
		return
	}
	var dec int64
	if s.quantile == 0 {
		dec = qselect.Min(s.sampleBuf[:n])
	} else {
		dec = qselect.Quantile(s.sampleBuf[:n], s.quantile)
	}
	for item, v := range s.counters {
		if v -= dec; v <= 0 {
			delete(s.counters, item)
		} else {
			s.counters[item] = v
		}
	}
	s.offset += dec
}

// Estimate returns the §2.3.1 hybrid estimate.
func (s *Sketch[T]) Estimate(item T) int64 {
	if v, ok := s.counters[item]; ok {
		return v + s.offset
	}
	return 0
}

// LowerBound returns a certain lower bound on item's frequency.
func (s *Sketch[T]) LowerBound(item T) int64 { return s.counters[item] }

// UpperBound returns a certain upper bound on item's frequency.
func (s *Sketch[T]) UpperBound(item T) int64 {
	if v, ok := s.counters[item]; ok {
		return v + s.offset
	}
	return s.offset
}

// MaximumError returns the additive error bound of any estimate.
func (s *Sketch[T]) MaximumError() int64 { return s.offset }

// StreamWeight returns N.
func (s *Sketch[T]) StreamWeight() int64 { return s.streamN }

// NumActive returns the number of assigned counters.
func (s *Sketch[T]) NumActive() int { return len(s.counters) }

// MaxCounters returns the counter budget k.
func (s *Sketch[T]) MaxCounters() int { return s.k }

// Quantile returns the decrement quantile (0 means SMIN).
func (s *Sketch[T]) Quantile() float64 { return s.quantile }

// SampleSize returns ℓ.
func (s *Sketch[T]) SampleSize() int { return s.sampleSize }

// IsEmpty reports whether no weight has been processed.
func (s *Sketch[T]) IsEmpty() bool { return s.streamN == 0 }

// Merge folds other into s per Algorithm 5 and returns s. Go map
// iteration order is already randomized, providing the §3.2 shuffled
// replay for free.
func (s *Sketch[T]) Merge(other *Sketch[T]) *Sketch[T] {
	if other == nil || other == s || other.IsEmpty() {
		return s
	}
	mergedN := s.streamN + other.streamN
	for item, v := range other.counters {
		_ = s.Update(item, v)
	}
	s.offset += other.offset
	s.streamN = mergedN
	return s
}

// Row is one frequent-item result.
type Row[T comparable] struct {
	Item       T
	Estimate   int64
	LowerBound int64
	UpperBound int64
}

// All returns an iterator over every tracked counter's row, in map order
// (randomized by the runtime), without materializing or sorting the
// result. The sketch must not be mutated while the iterator is live.
func (s *Sketch[T]) All() iter.Seq[Row[T]] {
	return func(yield func(Row[T]) bool) {
		for item, v := range s.counters {
			if !yield(Row[T]{Item: item, Estimate: v + s.offset, LowerBound: v, UpperBound: v + s.offset}) {
				return
			}
		}
	}
}

// Reset clears the sketch, keeping its configuration.
func (s *Sketch[T]) Reset() {
	clear(s.counters)
	s.offset = 0
	s.streamN = 0
}
