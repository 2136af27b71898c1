package core

import (
	"fmt"
	"iter"
	"strings"
)

// Row is one frequent-item result: the item with its estimate and the
// bracketing bounds of §2.3.1 (UpperBound - LowerBound == MaximumError
// for every assigned item).
type Row struct {
	Item       int64
	Estimate   int64
	LowerBound int64
	UpperBound int64
}

func (r Row) String() string {
	return fmt.Sprintf("{item:%d est:%d lb:%d ub:%d}", r.Item, r.Estimate, r.LowerBound, r.UpperBound)
}

// All returns an iterator over every assigned counter's row, in table
// order, without materializing or sorting the result — the streaming
// read primitive the query layer filters and orders on top of. The
// sketch must not be mutated while the iterator is live.
func (s *Sketch) All() iter.Seq[Row] {
	return func(yield func(Row) bool) {
		s.hm.Range(func(key, value int64) bool {
			return yield(Row{
				Item:       key,
				Estimate:   value + s.offset,
				LowerBound: value,
				UpperBound: value + s.offset,
			})
		})
	}
}

// String summarizes the sketch state for humans.
func (s *Sketch) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FrequentItemsSketch(k=%d", s.MaxCounters())
	if s.quantile == 0 {
		b.WriteString(", SMIN")
	} else {
		fmt.Fprintf(&b, ", q=%.2f", s.quantile)
	}
	fmt.Fprintf(&b, ", l=%d): N=%d, active=%d, offset=%d, bytes=%d",
		s.sampleSize, s.streamN, s.NumActive(), s.offset, s.SizeBytes())
	return b.String()
}
