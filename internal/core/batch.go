package core

import (
	"fmt"

	"repro/internal/hashmap"
)

// Batch ingestion: the same Algorithm 4 semantics as Update, amortized
// over a slice of updates. The per-item loop pays a growth/decrement
// check after every update even though the check can only fire after an
// insert that pushes the table past its counter budget. The batch loop
// exploits that: with h = Capacity() - NumActive() free counters, the
// next h updates cannot trip the check no matter how many of them insert
// new keys, so they run in a tight loop over the parallel arrays with a
// single check at the chunk boundary. The check fires at exactly the
// same points in the update sequence as the per-item loop, so a batch
// produces byte-identical sketch state to the equivalent Update loop
// (growth, decrement timing, and PRNG draws all included).

// UpdateBatch processes a slice of unit-weight updates, equivalent to
// calling UpdateOne on each item in order but with the growth/decrement
// check amortized across the batch.
//
//freq:noalloc
func (s *Sketch) UpdateBatch(items []int64) {
	s.applyBatch(items, nil)
	s.streamN += int64(len(items))
}

// UpdatePairs processes the weighted updates pairs[i] in order — the
// row-layout twin of UpdateWeightedBatch, consumed directly by the
// buffered writer's flush so a batch reads one cache line per update.
// Validation is all-or-nothing as in UpdateWeightedBatch.
//
//freq:noalloc
func (s *Sketch) UpdatePairs(pairs []hashmap.Pair) error {
	var total int64
	for _, p := range pairs {
		if p.Value < 0 {
			//freqvet:ignore noalloc cold rejection path; the batch is refused before any work, allocation is fine
			return fmt.Errorf("core: negative weight %d in batch (use freq.Signed for deletions)", p.Value)
		}
		total += p.Value
	}
	s.absorbChunked(pairs)
	s.streamN += total
	return nil
}

// UpdateWeightedBatch processes the weighted updates (items[i],
// weights[i]) in order, equivalent to an Update loop with the
// growth/decrement check amortized across the batch. The two slices must
// have equal length. Unlike an Update loop, validation is all-or-nothing:
// a negative weight anywhere in the batch rejects the whole batch before
// any update is applied. Zero weights are skipped as in Update.
//
//freq:noalloc
func (s *Sketch) UpdateWeightedBatch(items, weights []int64) error {
	if len(items) != len(weights) {
		//freqvet:ignore noalloc cold rejection path; the batch is refused before any work, allocation is fine
		return fmt.Errorf("core: batch length mismatch: %d items, %d weights", len(items), len(weights))
	}
	var total int64
	for _, w := range weights {
		if w < 0 {
			//freqvet:ignore noalloc cold rejection path; the batch is refused before any work, allocation is fine
			return fmt.Errorf("core: negative weight %d in batch (use freq.Signed for deletions)", w)
		}
		total += w
	}
	s.applyBatch(items, weights)
	s.streamN += total
	return nil
}

// applyBatch is the chunked Algorithm 4 body, leaving the streamN
// accounting to the caller (the total is never observed mid-batch, so
// adding it once at the end is equivalent). A nil weights slice means
// all-unit weights; weights are assumed validated non-negative.
//
//freq:noalloc
func (s *Sketch) applyBatch(items, weights []int64) {
	i := 0
	for i < len(items) {
		// Up to headroom updates cannot push NumActive past Capacity, so
		// the growth/decrement condition stays false throughout the chunk
		// exactly as it would in the per-item loop.
		chunk := s.hm.Capacity() - s.hm.NumActive()
		if chunk < 1 {
			chunk = 1
		}
		if rem := len(items) - i; chunk > rem {
			chunk = rem
		}
		if weights == nil {
			s.hm.AdjustBatch(items[i:i+chunk], nil)
		} else {
			s.hm.AdjustBatch(items[i:i+chunk], weights[i:i+chunk])
		}
		i += chunk
		s.checkBudget()
	}
}

// checkBudget is the Algorithm 4 growth/decrement step shared by the
// per-item and batch paths.
//
//freq:noalloc
func (s *Sketch) checkBudget() {
	if s.hm.NumActive() > s.hm.Capacity() {
		if s.hm.LgLength() < s.lgMaxLength {
			s.grow()
		} else {
			s.decrementCounters()
		}
	}
}
