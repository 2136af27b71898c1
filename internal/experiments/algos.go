// Package experiments is the harness that regenerates every table and
// figure of the paper's evaluation (§4): runtime comparisons (Figure 1),
// maximum-error comparisons (Figure 2), the quantile speed/error tradeoff
// (Figure 3), merge-procedure timing (Figure 4), the §2.3.3 space
// accounting, the §1.3 counter-vs-sketch comparison, and empirical checks
// of the paper's error guarantees. Each experiment returns typed rows;
// cmd/experiments prints them and figures_bench_test.go times the same
// workloads under testing.B. calibration_test.go checks the §2.3.2
// choice of sample size ℓ = 1024.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mg"
	"repro/internal/spacesaving"
)

// Algo is the uniform view of a weighted frequent-items algorithm under
// test.
type Algo interface {
	Name() string
	Update(item, weight int64)
	Estimate(item int64) int64
	SizeBytes() int
}

// coreAlgo adapts core.Sketch (whose Update returns an error) to Algo.
type coreAlgo struct {
	*core.Sketch
	name string
}

func (a coreAlgo) Name() string { return a.name }

func (a coreAlgo) Update(item, weight int64) {
	if err := a.Sketch.Update(item, weight); err != nil {
		panic(err) // harness never sends negative weights
	}
}

func (a coreAlgo) SizeBytes() int { return a.Sketch.MaxSizeBytes() }

// Maker constructs an algorithm with a counter budget k.
type Maker struct {
	Name string
	New  func(k int) Algo
}

// NewSMED constructs the paper's headline configuration.
func NewSMED(k int) Algo {
	s, err := core.NewWithOptions(core.Options{MaxCounters: k, Seed: 0xA11CE, DisableGrowth: true})
	if err != nil {
		panic(err)
	}
	return coreAlgo{Sketch: s, name: "SMED"}
}

// NewSMIN constructs the sample-minimum variant.
func NewSMIN(k int) Algo {
	s, err := core.NewWithOptions(core.Options{MaxCounters: k, Seed: 0xB0B, Quantile: core.QuantileMin, DisableGrowth: true})
	if err != nil {
		panic(err)
	}
	return coreAlgo{Sketch: s, name: "SMIN"}
}

// NewQuantile constructs the Figure 3 generalization: decrement by an
// arbitrary sample quantile.
func NewQuantile(k int, q float64) Algo {
	opt := core.Options{MaxCounters: k, Seed: 0xC0FFEE, DisableGrowth: true}
	if q == 0 {
		opt.Quantile = core.QuantileMin
	} else {
		opt.Quantile = q
	}
	s, err := core.NewWithOptions(opt)
	if err != nil {
		panic(err)
	}
	return coreAlgo{Sketch: s, name: fmt.Sprintf("q=%.2f", q)}
}

// NewRBMC constructs the Berinde et al. baseline.
func NewRBMC(k int) Algo {
	r, err := mg.NewRBMC(k, 0xDEAD)
	if err != nil {
		panic(err)
	}
	return rbmcAlgo{r}
}

type rbmcAlgo struct{ *mg.RBMC }

func (a rbmcAlgo) Update(item, weight int64) { a.RBMC.Update(item, weight) }

// NewMHE constructs the min-heap Space Saving baseline.
func NewMHE(k int) Algo {
	h, err := spacesaving.NewHeap(k, 0xBEEF)
	if err != nil {
		panic(err)
	}
	return mheAlgo{h}
}

type mheAlgo struct{ *spacesaving.Heap }

func (a mheAlgo) Update(item, weight int64) { a.Heap.Update(item, weight) }

// FigureMakers are the four algorithms of Figures 1 and 2 in the paper's
// display order.
func FigureMakers() []Maker {
	return []Maker{
		{Name: "SMED", New: NewSMED},
		{Name: "SMIN", New: NewSMIN},
		{Name: "RBMC", New: NewRBMC},
		{Name: "MHE", New: NewMHE},
	}
}

// EqualSpaceCounters returns the largest counter budget whose summary fits
// within the byte budget of the reference algorithm at kRef counters —
// the "equal space" panels of Figures 1 and 2. The fit is found by
// doubling-then-bisecting on the maker's own SizeBytes accounting.
func EqualSpaceCounters(make func(k int) Algo, budgetBytes int) int {
	// Start at the smallest budget every algorithm supports.
	lo, hi := 8, 16
	if make(lo).SizeBytes() > budgetBytes {
		return lo
	}
	for make(hi).SizeBytes() <= budgetBytes {
		lo = hi
		hi *= 2
		if hi > 1<<24 {
			break
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if make(mid).SizeBytes() <= budgetBytes {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
