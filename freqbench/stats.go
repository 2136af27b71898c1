package main

import (
	"math"
	"slices"
)

// minTail is the number of samples a reported percentile must have
// beyond it: a tail percentile resting on fewer is noise.
const minTail = 10

// percentile returns the q-quantile (0 <= q <= 1) of samples by linear
// interpolation between closest ranks, sorting samples in place. It
// returns NaN for an empty sample.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	slices.Sort(samples)
	pos := q * float64(len(samples)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(samples)-1)
	return samples[lo] + (samples[hi]-samples[lo])*(pos-float64(lo))
}

// tailSupported reports whether n samples leave at least minTail samples
// beyond the q-quantile. The tolerance absorbs rounding in 1-q.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q)+1e-9 >= minTail
}

// quartiles returns the first quartile, median and third quartile of
// values, computed like Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), so spreads read the same as in any
// script that checks them. values is sorted in place; it needs at least
// two entries.
func quartiles(values []float64) (q1, med, q3 float64) {
	slices.Sort(values)
	n := len(values)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		out[i-1] = (values[j-1]*(4-delta) + values[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}
