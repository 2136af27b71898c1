package experiments

import (
	"math"
	"testing"
)

// The §2.3.2 calibration: each DecrementCounters() samples ℓ counters with
// replacement and decrements by the sample median. The decrement exceeds
// the counters' (1 − 0.33)-quantile — breaking the N^res(j)/(0.33·k − j)
// guarantee of Theorem 4 — only if at least ℓ/2 of the samples land in
// the top 0.33 of the counters: P[Bin(ℓ, 0.33) ≥ ℓ/2]. A stream of
// weighted length N causes at most N decrements (deliberately
// conservative), so a union bound gives the stream failure probability.
// These probabilities are astronomically small, so they are computed in
// log space.

// logBinomialTail returns ln P[Bin(n, p) ≥ k] for 0 < k ≤ n and
// 0 < p < 1, summing the terms exactly in log space.
func logBinomialTail(n int, p float64, k int) float64 {
	logP, logQ := math.Log(p), math.Log1p(-p)
	lgN, _ := math.Lgamma(float64(n + 1))
	sum := math.Inf(-1) // ln of the running sum
	for i := k; i <= n; i++ {
		lgI, _ := math.Lgamma(float64(i + 1))
		lgNI, _ := math.Lgamma(float64(n - i + 1))
		term := lgN - lgI - lgNI + float64(i)*logP + float64(n-i)*logQ
		hi, lo := max(sum, term), min(sum, term)
		sum = hi + math.Log1p(math.Exp(lo-hi))
	}
	return sum
}

func TestLogBinomialTailSmallExact(t *testing.T) {
	// Bin(4, 0.5): P[X >= 3] = (4 + 1)/16 = 0.3125.
	if got := math.Exp(logBinomialTail(4, 0.5, 3)); math.Abs(got-0.3125) > 1e-12 {
		t.Errorf("P[Bin(4,.5)>=3] = %v, want 0.3125", got)
	}
	// Bin(3, 1/3): P[X >= 2] = 3*(1/9)(2/3) + 1/27 = 7/27.
	if got := math.Exp(logBinomialTail(3, 1.0/3.0, 2)); math.Abs(got-7.0/27.0) > 1e-12 {
		t.Errorf("P[Bin(3,1/3)>=2] = %v, want %v", got, 7.0/27.0)
	}
}

// TestPaperClaim232 checks the paper's choice of sample size: ℓ = 1024
// gives failure probability at most 1.5×10⁻⁸ for streams of weighted
// length up to 10^20.
func TestPaperClaim232(t *testing.T) {
	const l = 1024
	perDec := logBinomialTail(l, 0.33, (l+1)/2)
	// Around e^-60 (KL(1/2||1/3) ≈ 0.0589 nats per sample).
	if perDec > -55 || perDec < -75 {
		t.Errorf("per-decrement ln failure %v outside expected [-75, -55]", perDec)
	}
	if p := math.Exp(math.Log(1e20) + perDec); p > 1.5e-8 {
		t.Errorf("ℓ=1024 at N=1e20: failure probability %.3e exceeds the paper's 1.5e-8", p)
	}
}
