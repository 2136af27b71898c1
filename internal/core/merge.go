package core

import (
	"repro/internal/hashmap"
	"repro/internal/xrand"
)

// Merge folds other into s using Algorithm 5: every assigned counter of
// other is treated as the weighted update (item, c(item)) against s, then
// the offsets add (errors of the two summaries are additive, Theorem 5).
// Merging uses no space beyond the two summaries plus a pooled gather
// buffer and runs in O(k) — and in amortized O(k') when many k'-counter
// summaries are merged into one (§3.2 "Speed").
//
// Per the §3.2 note, merging two summaries that share a hash function
// must not visit other's counters in table order, or keys pile up at the
// front of s's probe runs. Merge honors the note exactly where it bites:
// when the two tables share a seed the gathered counters are shuffled
// (see shuffleIfSharedSeed); with independent seeds — the default, since
// Options.Seed == 0 draws per-sketch random seeds — table order is
// already independent of s's placement and is used as-is.
//
// Since the bulk engine landed, Merge no longer replays counters through
// the one-at-a-time update path: it gathers other's counters once and
// plays the buffer through the chunked batch kernels (see MergeInto) —
// byte-identical state to a per-counter replay of the same sequence, at
// a fraction of the cost. MergeReplay in mergebaselines.go keeps the
// pre-bulk implementation as the benchmark baseline.
//
// other is not modified. Merging a sketch into itself is not supported.
// The result always lives in s, which is also returned for chaining.
func (s *Sketch) Merge(other *Sketch) *Sketch {
	if other == nil || other == s {
		return s
	}
	return other.MergeInto(s)
}

// MergeInto merges s's counters into dst through the bulk engine and
// returns dst; dst.Merge(s) delegates here. The kernel: gather s's
// counters into pooled buffers with one sequential table scan, shuffle
// them iff the tables share a hash seed (the §3.2 randomized order),
// then absorb with the same chunked-headroom pattern as the batch
// update path — with
// h = Capacity() - NumActive() free counters, the next h gathered
// counters cannot trip the growth/decrement condition, so they run as
// one pipelined AdjustBatch with a single check at the chunk boundary.
// The boundary is exactly where a per-counter loop over the same
// sequence would have checked, so the resulting state is byte-identical
// to replaying the shuffled sequence one update at a time (locked by the
// bulk-engine property tests). When dst is empty with headroom for all
// of s's counters (the fresh-coordinator case), the adjust kernel is
// replaced outright by the found-check-free InsertUnique.
func (s *Sketch) MergeInto(dst *Sketch) *Sketch {
	if s == nil || s == dst || dst == nil || s.IsEmpty() {
		return dst
	}
	mergedN := dst.streamN + s.streamN
	n := s.hm.NumActive()
	pp := getPairs(n)
	pairs := s.hm.AppendActive((*pp)[:0])
	dst.shuffleIfSharedSeed(s, pairs)
	dst.absorbCounters(pairs)
	*pp = pairs
	putPairs(pp)
	dst.offset += s.offset
	// The absorbed counters account only for s's surviving counter mass C;
	// the true weighted length of the concatenation is N1 + N2.
	dst.streamN = mergedN
	return dst
}

// MergeDisjoint folds other into s under a guarantee Merge cannot assume:
// the two summaries track disjoint item sets (the shard fan-in case —
// hash-partitioned shards never share an item). The table is pre-grown to
// its final size in one rehash and every counter goes through the
// found-check-free InsertUnique kernel, with the decrement check deferred
// to a single post-insert pass. Offsets add and stream weights sum
// exactly as in Merge. MergeDisjoint is NOT byte-identical to Merge
// (growth happens up front rather than on demand); its query answers
// are identical whenever no decrement fires, which the view and
// snapshot merges guarantee by construction (their combined budget
// admits every shard's counters). Violating the disjointness contract
// corrupts s.
func (s *Sketch) MergeDisjoint(other *Sketch) *Sketch {
	if other == nil || other == s || other.IsEmpty() {
		return s
	}
	mergedN := s.streamN + other.streamN
	n := other.hm.NumActive()
	pp := getPairs(n)
	pairs := other.hm.AppendActive((*pp)[:0])
	s.shuffleIfSharedSeed(other, pairs)
	need := s.hm.NumActive() + len(pairs)
	if s.hm.Capacity() < need {
		if lg := min(lgLengthFor(need), s.lgMaxLength); lg > s.hm.LgLength() {
			s.growTo(lg)
		}
	}
	if need < s.hm.Length() {
		s.hm.InsertUnique(pairs)
		// Deferred budget pass: one decrement sweep per capacity excess,
		// instead of a check per counter.
		for s.hm.NumActive() > s.hm.Capacity() {
			s.decrementCounters()
		}
	} else {
		// Even the maximum table cannot hold both summaries at once;
		// interleave decrements at chunk boundaries as the batch path does.
		s.absorbChunked(pairs)
	}
	*pp = pairs
	putPairs(pp)
	s.offset += other.offset
	s.streamN = mergedN
	return s
}

// shuffleIfSharedSeed applies the §3.2 randomized merge order exactly
// when it is needed. The note's hazard is merging two summaries that
// share a hash function: src's table order is then sorted by dst's hash
// too, and inserting it in order piles keys up at the front of dst's
// probe runs. Both seeds are known here — when they differ (the default:
// sketches draw independent random seeds), placement in dst is already
// independent of src's table order and the shuffle is pure overhead;
// when they collide (a caller pinned Options.Seed on both sides, or a
// sketch merges with its own clone), one Fisher–Yates pass over the
// compact row-layout gather buffer restores the §3.2 guarantee with a
// uniformly random order — stronger than the strided walk the replay
// merge used, at a fraction of the memory traffic.
func (s *Sketch) shuffleIfSharedSeed(src *Sketch, pairs []hashmap.Pair) {
	if s.hm.Seed() != src.hm.Seed() {
		return
	}
	shufflePairs(&s.rng, pairs)
}

// shufflePairs is one in-place Fisher–Yates pass.
func shufflePairs(rng *xrand.SplitMix64, pairs []hashmap.Pair) {
	for i := len(pairs) - 1; i > 0; i-- {
		j := rng.Uint64n(uint64(i + 1))
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
}

// absorbCounters plays gathered counters into the table with the
// growth/decrement checkpoints of the replay path, taking the
// InsertUnique shortcut when the table is provably untouched by them.
func (s *Sketch) absorbCounters(pairs []hashmap.Pair) {
	if s.hm.NumActive() == 0 && len(pairs) <= s.hm.Capacity() {
		// Empty table: every key is new, headroom covers the whole batch,
		// and no growth or decrement checkpoint can fire before the end —
		// identical placement to the adjust path, minus its probes.
		s.hm.InsertUnique(pairs)
		return
	}
	s.absorbChunked(pairs)
}

// absorbChunked is the applyBatch pattern over pairs — gathered
// counters, or an UpdatePairs batch: chunks sized to the free-counter
// headroom, one budget check per chunk, firing at exactly the points a
// per-counter loop would.
//
//freq:noalloc
func (s *Sketch) absorbChunked(pairs []hashmap.Pair) {
	i := 0
	for i < len(pairs) {
		chunk := s.hm.Capacity() - s.hm.NumActive()
		if chunk < 1 {
			chunk = 1
		}
		if rem := len(pairs) - i; chunk > rem {
			chunk = rem
		}
		s.hm.AdjustPairs(pairs[i : i+chunk])
		i += chunk
		s.checkBudget()
	}
}
