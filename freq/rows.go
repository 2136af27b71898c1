package freq

import (
	"fmt"

	"repro/internal/core"
)

// ErrorType selects heavy-hitter extraction semantics, mirroring the
// DataSketches API: which side of the sketch's error band — at most
// MaximumError(), the ε·W of the paper's Theorem 2 with ε = 1/(0.33·k)
// — a query is allowed to err on. One of the two is always exact; the
// sketch cannot be wrong on both sides at once. The numeric values, 0
// and 1, are what the wire protocol's FI command carries.
type ErrorType int

const (
	// NoFalsePositives returns items whose LowerBound exceeds the
	// threshold: every returned item truly carries more weight than the
	// threshold, but items whose true frequency lies within MaximumError
	// above it may be missed. Choose this when acting on a result is
	// expensive (alerting, throttling a customer).
	NoFalsePositives ErrorType = iota
	// NoFalseNegatives returns items whose UpperBound exceeds the
	// threshold: every item truly above it is returned, plus possibly a
	// few whose true frequency lies within MaximumError below it — the
	// "(φ, ε)-heavy hitters with false positives" guarantee of §1.2.
	// Choose this when missing a heavy item is the expensive outcome
	// (capacity planning, abuse detection).
	NoFalseNegatives
)

func (e ErrorType) String() string {
	switch e {
	case NoFalsePositives:
		return "NoFalsePositives"
	case NoFalseNegatives:
		return "NoFalseNegatives"
	default:
		return fmt.Sprintf("ErrorType(%d)", int(e))
	}
}

// Row is one frequent-item result: the item with its estimate and the
// bracketing bounds (UpperBound - LowerBound == MaximumError for every
// tracked item).
type Row[T comparable] struct {
	Item       T
	Estimate   int64
	LowerBound int64
	UpperBound int64
}

func (r Row[T]) String() string {
	return fmt.Sprintf("{item:%v est:%d lb:%d ub:%d}", r.Item, r.Estimate, r.LowerBound, r.UpperBound)
}

// TailBound returns the a-priori §2.3.2 error guarantee for a k-counter
// sketch after residualWeight stream weight beyond the top j items:
// N^res(j) / (0.33·k − j), or +Inf once j reaches 0.33·k.
func TailBound(k, j int, residualWeight int64) float64 {
	return core.TailBound(k, j, residualWeight)
}
