package core

import (
	"fmt"

	"repro/internal/hashmap"
	"repro/internal/qselect"
	"repro/internal/xrand"
)

// UpdateOne processes a unit-weight update, as in the classic unweighted
// frequent-items problem.
func (s *Sketch) UpdateOne(item int64) {
	s.update(item, 1)
}

// Update processes the weighted stream update (item, weight). Zero weights
// are ignored; negative weights return an error (the strict-turnstile
// recipe of §1.3's Note is to keep two sketches, one per sign — see
// freq.Signed).
func (s *Sketch) Update(item int64, weight int64) error {
	if weight < 0 {
		return fmt.Errorf("core: negative weight %d (use freq.Signed for deletions)", weight)
	}
	if weight == 0 {
		return nil
	}
	s.update(item, weight)
	return nil
}

// update is the Algorithm 4 body. The item is inserted (or its counter
// incremented) first; if the table then exceeds its counter budget the
// sketch either doubles the table (adaptive growth below the configured
// maximum — the DataSketches behaviour) or performs DecrementCounters,
// which also charges the just-inserted item the decrement value c* and
// purges it if its weight did not exceed c*, exactly matching lines 11-14
// of Algorithm 4.
func (s *Sketch) update(item int64, weight int64) {
	s.streamN += weight
	s.hm.Adjust(item, weight)
	if s.hm.NumActive() > s.hm.Capacity() {
		if s.hm.LgLength() < s.lgMaxLength {
			s.grow()
		} else {
			s.decrementCounters()
		}
	}
}

// grow doubles the table, rehashing all counters. Growth happens at most
// lgMax - lgMin times over a sketch's lifetime, so its amortized cost is
// O(1) per update.
func (s *Sketch) grow() { s.growTo(s.hm.LgLength() + 1) }

// growTo rebuilds the table at 2^lg slots through the bulk engine:
// gather the active pairs in table order into pooled buffers, then
// InsertUnique into the bigger table. The keys of a table are distinct
// by construction and the bigger table has headroom by construction, so
// the rehash skips the per-counter found-check probes — and because
// InsertUnique claims the same cells an Adjust loop would, the layout is
// identical to the Range+Adjust rehash it replaces.
func (s *Sketch) growTo(lg int) {
	bigger, err := hashmap.New(lg, s.seed)
	if err != nil {
		// Unreachable: lgMaxLength was validated against MaxLgLength.
		panic(err)
	}
	n := s.hm.NumActive()
	pp := getPairs(n)
	pairs := s.hm.AppendActive((*pp)[:0])
	bigger.InsertUnique(pairs)
	*pp = pairs
	putPairs(pp)
	s.hm = bigger
}

// decrementCounters is the DecrementCounters() of Algorithm 4: sample
// ℓ counters, take the configured sample quantile c*, subtract c* from
// every counter, discard the non-positive ones, and accumulate c* into the
// offset used by Estimate (§2.3.1).
func (s *Sketch) decrementCounters() {
	n := s.hm.SampleValues(s.sampleBuf, &s.rng)
	if n == 0 {
		return
	}
	var dec int64
	if s.quantile == 0 {
		dec = qselect.Min(s.sampleBuf[:n]) // SMIN
	} else {
		dec = qselect.Quantile(s.sampleBuf[:n], s.quantile)
	}
	// dec is the value of some active counter, hence >= 1, so at least
	// that counter is evicted and progress is guaranteed even at the
	// minimum quantile.
	s.hm.DecrementAndPurge(dec)
	s.offset += dec
	s.decrements++
}

// DecrementCount returns the number of DecrementCounters() operations
// performed so far — the quantity Lemma 3 and Theorem 3 bound at one per
// Ω(k) updates, and the observable behind the Figure 3 speed curve.
func (s *Sketch) DecrementCount() int64 { return s.decrements }

// Estimate returns the §2.3.1 hybrid estimate f̂i: c(i) + offset when item
// is assigned a counter (the aggressive SS-style estimate) and 0 otherwise
// (the exactly-correct MG-style answer for items never seen or evicted).
func (s *Sketch) Estimate(item int64) int64 {
	if v, ok := s.hm.Get(item); ok {
		return v + s.offset
	}
	return 0
}

// EstimateBatch returns the §2.3.1 hybrid estimates for every item,
// writing them to dst (reallocated only when too small) — the batch read
// kernel of the query layer, running the pipelined GetBatch probe so a
// batch of cold lookups overlaps its cache misses. dst[i] corresponds to
// items[i]; the returned slice has len(items). Safe for concurrent use
// on an immutable view (scratch comes from a pool, not the sketch).
func (s *Sketch) EstimateBatch(items []int64, dst []int64) []int64 {
	if cap(dst) < len(items) {
		dst = make([]int64, len(items))
	} else {
		dst = dst[:len(items)]
	}
	if len(items) == 0 {
		return dst
	}
	fp := getBools(len(items))
	found := *fp
	s.hm.GetBatch(items, dst, found)
	if s.offset != 0 {
		for i, ok := range found {
			if ok {
				dst[i] += s.offset
			}
		}
	}
	putBools(fp)
	return dst
}

// LowerBound returns a value certainly <= the true frequency of item:
// the raw counter c(i), or 0 when unassigned.
func (s *Sketch) LowerBound(item int64) int64 {
	v, _ := s.hm.Get(item)
	return v
}

// UpperBound returns a value certainly >= the true frequency of item:
// c(i) + offset, or offset when unassigned.
func (s *Sketch) UpperBound(item int64) int64 {
	if v, ok := s.hm.Get(item); ok {
		return v + s.offset
	}
	return s.offset
}

// AppendLargest appends the min(n, NumActive) assigned counters with the
// largest values — the items' LowerBounds — to dst as (item, counter)
// pairs in unspecified order, from one scan of the table. Every counter
// left out is no larger than the smallest one returned.
func (s *Sketch) AppendLargest(dst []hashmap.Pair, n int) []hashmap.Pair {
	return s.hm.AppendLargest(dst, n)
}

// MaximumError returns the current additive error bound of any estimate:
// the offset, i.e. the sum of all decrement values. UpperBound(i) -
// LowerBound(i) equals this for every assigned item.
func (s *Sketch) MaximumError() int64 { return s.offset }

// StreamWeight returns N, the total weight processed (including weight
// merged in from other sketches).
func (s *Sketch) StreamWeight() int64 { return s.streamN }

// NumActive returns the number of assigned counters.
func (s *Sketch) NumActive() int { return s.hm.NumActive() }

// MaxCounters returns the configured counter budget k (3/4 of the maximum
// table length).
func (s *Sketch) MaxCounters() int {
	return int(float64(int(1)<<s.lgMaxLength) * hashmap.LoadFactor)
}

// Quantile returns the decrement quantile (0 means SMIN).
func (s *Sketch) Quantile() float64 { return s.quantile }

// SampleSize returns ℓ.
func (s *Sketch) SampleSize() int { return s.sampleSize }

// IsEmpty reports whether the sketch has processed no weight.
func (s *Sketch) IsEmpty() bool { return s.streamN == 0 }

// Reset returns the sketch to its freshly constructed state, keeping its
// configuration and seed.
func (s *Sketch) Reset() {
	hm, err := hashmap.New(s.lgStart, s.seed)
	if err != nil {
		panic(err)
	}
	s.hm = hm
	s.offset = 0
	s.streamN = 0
	s.decrements = 0
}

// Clear empties the sketch in place: every counter is dropped, the
// offset, stream weight, and decrement diagnostics return to zero, and
// the sampling PRNG rewinds to its construction state — but the table
// allocation, including any growth it accumulated, is retained. Unlike
// Reset, Clear never allocates; it is the slot-recycling primitive
// behind ring rotation (a retired interval's sketch becomes the next
// head without a new table) and alloc-free shard resets. The only
// observable difference from a fresh sketch is the growth schedule: a
// cleared sketch skips the rehashes a fresh one would pay on its way
// back up to the retained size, which never changes counter values.
func (s *Sketch) Clear() {
	s.hm.Reset(s.seed)
	s.offset = 0
	s.streamN = 0
	s.decrements = 0
	s.rng = xrand.NewSplitMix64(s.seed ^ 0xa0761d6478bd642f)
}

// Seed returns the sketch's effective hash seed: the pinned
// Options.Seed, or the per-sketch random draw when none was pinned.
// Two sketches with distinct seeds place items independently, the
// property the §3.2 merge note and the Signed per-side decorrelation
// rely on.
func (s *Sketch) Seed() uint64 { return s.seed }

// SizeBytes returns the current in-memory footprint of the counter arrays:
// 18 bytes per slot (8 key + 8 value + 2 state), the §2.3.3 accounting that
// yields 24k bytes at full size.
func (s *Sketch) SizeBytes() int { return 18 * s.hm.Length() }

// MaxSizeBytes returns the §2.3.3 full-size footprint 18·(4/3)·k = 24k
// bytes for the configured maximum table.
func (s *Sketch) MaxSizeBytes() int { return 18 * (1 << s.lgMaxLength) }
