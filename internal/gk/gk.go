// Package gk implements the Greenwald–Khanna ε-approximate quantile
// summary and its use as a frequent-items estimator — the third class
// ("quantile algorithms") in the Cormode–Hadjieleftheriou taxonomy that
// §1.3 reports losing to counter-based algorithms on space, speed, and
// accuracy. It completes this repository's coverage of that taxonomy
// (counter-based: core/mg/spacesaving; sketches: sketches; quantile:
// here), so the "initial experiments" comparison can be run against all
// three classes.
//
// A GK summary maintains a sorted list of tuples (v, g, δ) where g is the
// gap in minimum rank to the predecessor and δ the rank uncertainty; it
// answers rank queries within εn. The frequency of item v in the stream
// is rank(v⁺) − rank(v⁻), so a point query costs two rank queries and has
// additive error 2εn — strictly worse, per unit of space, than a
// counter-based summary, which is exactly the §1.3 finding.
package gk

import (
	"fmt"
	"sort"
)

type tuple struct {
	value int64
	g     int64 // min-rank gap to predecessor
	delta int64 // rank uncertainty
}

// Summary is a Greenwald–Khanna ε-approximate quantile summary over
// int64 values. It supports unit insertions; weighted insertion of
// (v, w) is w unit insertions (this is the fundamental reason quantile
// summaries lose on weighted streams — there is no O(1) weighted update).
type Summary struct {
	epsilon  float64
	tuples   []tuple
	n        int64
	buf      []int64 // insertion buffer, merged in sorted batches
	bufLimit int
}

// New returns a GK summary with rank error at most epsilon*n.
func New(epsilon float64) (*Summary, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return nil, fmt.Errorf("gk: epsilon %v outside (0, 1)", epsilon)
	}
	s := &Summary{epsilon: epsilon}
	s.bufLimit = int(1/epsilon) + 1
	if s.bufLimit > 4096 {
		s.bufLimit = 4096
	}
	s.buf = make([]int64, 0, s.bufLimit)
	return s, nil
}

// Epsilon returns the configured rank-error fraction.
func (s *Summary) Epsilon() float64 { return s.epsilon }

// N returns the number of inserted values.
func (s *Summary) N() int64 { return s.n }

// NumTuples returns the current summary size in tuples.
func (s *Summary) NumTuples() int { return len(s.tuples) + len(s.buf) }

// SizeBytes approximates the footprint at 24 bytes per tuple plus the
// buffer.
func (s *Summary) SizeBytes() int { return 24*len(s.tuples) + 8*cap(s.buf) }

// Insert adds one occurrence of v.
func (s *Summary) Insert(v int64) {
	s.buf = append(s.buf, v)
	s.n++
	if len(s.buf) >= s.bufLimit {
		s.flush()
	}
}

// InsertWeighted adds w occurrences of v — Θ(w) work, the §1.3.4
// reduce-to-unit-case penalty that quantile summaries cannot avoid.
func (s *Summary) InsertWeighted(v int64, w int64) {
	for ; w > 0; w-- {
		s.Insert(v)
	}
}

// flush merges the buffered values into the tuple list and compresses.
func (s *Summary) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Slice(s.buf, func(i, j int) bool { return s.buf[i] < s.buf[j] })
	// Cap on δ for newly inserted tuples: 2εn (the GK invariant bound),
	// except at the extremes which are exact.
	maxDelta := int64(2 * s.epsilon * float64(s.n))
	merged := make([]tuple, 0, len(s.tuples)+len(s.buf))
	ti, bi := 0, 0
	for ti < len(s.tuples) || bi < len(s.buf) {
		if bi >= len(s.buf) {
			merged = append(merged, s.tuples[ti])
			ti++
			continue
		}
		if ti < len(s.tuples) && s.tuples[ti].value <= s.buf[bi] {
			merged = append(merged, s.tuples[ti])
			ti++
			continue
		}
		// Insert buffered value. δ = 0 at the ends, else maxDelta - 1.
		d := maxDelta - 1
		if d < 0 {
			d = 0
		}
		if len(merged) == 0 || (ti >= len(s.tuples) && bi == len(s.buf)-1) {
			d = 0
		}
		merged = append(merged, tuple{value: s.buf[bi], g: 1, delta: d})
		bi++
	}
	s.tuples = merged
	s.buf = s.buf[:0]
	s.compress()
}

// compress merges adjacent tuples whose combined span stays within the
// 2εn invariant, keeping the summary at O((1/ε) log(εn)) tuples.
func (s *Summary) compress() {
	if len(s.tuples) < 3 {
		return
	}
	threshold := int64(2 * s.epsilon * float64(s.n))
	out := s.tuples[:1] // first tuple (minimum) is kept exact
	for i := 1; i < len(s.tuples)-1; i++ {
		t := s.tuples[i]
		last := &out[len(out)-1]
		_ = last
		next := s.tuples[i+1]
		if t.g+next.g+next.delta < threshold {
			// Merge t into its successor: the successor's g absorbs t's.
			s.tuples[i+1].g += t.g
			continue
		}
		out = append(out, t)
	}
	out = append(out, s.tuples[len(s.tuples)-1])
	s.tuples = out
}

// RankBounds returns certain lower and upper bounds on the rank of v
// (the number of inserted values <= v).
func (s *Summary) RankBounds(v int64) (lo, hi int64) {
	s.flush()
	var minRank int64
	for i, t := range s.tuples {
		minRank += t.g
		if t.value > v {
			// v falls before tuple i: rank in [minRank - g, minRank - g + prev uncertainty].
			lo = minRank - t.g
			if i > 0 {
				hi = minRank - t.g + s.tuples[i-1].delta
			}
			return lo, hi
		}
	}
	return s.n, s.n
}

// Quantile returns a value whose rank is within εn of q*n.
func (s *Summary) Quantile(q float64) int64 {
	s.flush()
	if len(s.tuples) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(s.n)) + 1
	margin := int64(s.epsilon*float64(s.n)) + 1
	var minRank int64
	for i, t := range s.tuples {
		minRank += t.g
		maxRank := minRank + t.delta
		if target-minRank <= margin && maxRank-target <= margin {
			return t.value
		}
		if i == len(s.tuples)-1 {
			break
		}
	}
	return s.tuples[len(s.tuples)-1].value
}

// Estimate returns the estimated frequency of item v: rank(v) − rank(v−1),
// with additive error up to ~2εn. This is the quantile-algorithm answer
// to the point-query problem of §1.2.
func (s *Summary) Estimate(v int64) int64 {
	lo1, hi1 := s.RankBounds(v)
	lo0, hi0 := s.RankBounds(v - 1)
	est := (lo1+hi1)/2 - (lo0+hi0)/2
	if est < 0 {
		return 0
	}
	return est
}

// CheckInvariants verifies the GK invariants for tests: values
// non-decreasing, Σg = n, and g + δ within the 2εn band (+1 slack for
// the freshly merged batch).
func (s *Summary) CheckInvariants() error {
	s.flush()
	var sum int64
	threshold := int64(2*s.epsilon*float64(s.n)) + 1
	for i, t := range s.tuples {
		sum += t.g
		if i > 0 && t.value < s.tuples[i-1].value {
			return fmt.Errorf("gk: values out of order at %d", i)
		}
		if t.g+t.delta > threshold {
			return fmt.Errorf("gk: tuple %d: g+delta = %d exceeds 2εn = %d", i, t.g+t.delta, threshold)
		}
	}
	if sum != s.n {
		return fmt.Errorf("gk: Σg = %d, n = %d", sum, s.n)
	}
	return nil
}
