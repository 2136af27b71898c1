package freq

import (
	"fmt"
	"iter"
)

// View is an immutable, snapshot-isolated read view over a Concurrent
// sketch: a single merged summary (Algorithm 5) of all shards, cached by
// write epoch — Concurrent.View returns the same underlying merged
// sketch until some shard is written again, so repeated reads cost zero
// additional shard merges. A View exposes only the read side of the
// facade; it is safe for concurrent use by any number of readers and
// keeps answering from its frozen state no matter what the live sketch
// does.
//
// The view's bounds are the merged summary's: one global error band, the
// same answer a coordinator holding the shipped-and-merged snapshot
// would give (the paper's §3 distributed story, in-process).
type View[T comparable] struct {
	sk *Sketch[T]
}

// NewView wraps a sketch in its read-only view facade — the adapter
// that lets another package (freq/store's range queries, say) hand out
// a merged result through the same Queryable surface every other
// front-end serves. The caller must not mutate s while the view is in
// use; the view answers from whatever state s holds at each call.
func NewView[T comparable](s *Sketch[T]) *View[T] { return &View[T]{sk: s} }

// Estimate returns the point estimate for item in the frozen view.
func (v *View[T]) Estimate(item T) int64 { return v.sk.Estimate(item) }

// EstimateBatch returns the point estimates for every item at freeze
// time, writing them to dst (reallocated only when too small) and
// returning it. Safe for concurrent use like every view read: the batch
// kernel keeps its scratch in a pool, never on the shared sketch.
func (v *View[T]) EstimateBatch(items []T, dst []int64) []int64 {
	return v.sk.EstimateBatch(items, dst)
}

// AppendBinary implements encoding.BinaryAppender over the frozen view:
// it appends the view's encoding to dst and returns the extended slice,
// allocation-free on the fast path when dst has capacity. The wire
// server's SNAP command serializes views this way, one pooled buffer per
// connection.
func (v *View[T]) AppendBinary(dst []byte) ([]byte, error) {
	return v.sk.AppendBinary(dst)
}

// LowerBound returns a value certainly <= item's frequency at freeze time.
func (v *View[T]) LowerBound(item T) int64 { return v.sk.LowerBound(item) }

// UpperBound returns a value certainly >= item's frequency at freeze time.
func (v *View[T]) UpperBound(item T) int64 { return v.sk.UpperBound(item) }

// MaximumError returns the merged summary's error band.
func (v *View[T]) MaximumError() int64 { return v.sk.MaximumError() }

// MaxCounters returns the viewed sketch's counter budget k — the sizing
// hint a rotation sink records alongside each persisted slot.
func (v *View[T]) MaxCounters() int { return v.sk.MaxCounters() }

// StreamWeight returns the total weight the view accounts for.
func (v *View[T]) StreamWeight() int64 { return v.sk.StreamWeight() }

// NumActive returns the number of assigned counters in the view.
func (v *View[T]) NumActive() int { return v.sk.NumActive() }

// All iterates every tracked row, in unspecified order, without
// materializing the result.
func (v *View[T]) All() iter.Seq2[T, Row[T]] { return v.sk.All() }

// Query starts a composable query over the view.
func (v *View[T]) Query() *Query[T] { return From[T](v) }

// topRows certifies the view's top n from its n+1 largest counters.
func (v *View[T]) topRows(n int) ([]Row[T], bool) { return v.sk.topRows(n) }

// Materialize returns an independent mutable copy of the view, for
// callers that want to merge it onward or serialize it without holding
// the shared cache entry.
func (v *View[T]) Materialize() (*Sketch[T], error) {
	blob, err := v.sk.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out, err := New[T](max(v.sk.MaxCounters(), 1))
	if err != nil {
		return nil, err
	}
	if err := out.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return out, nil
}

func (v *View[T]) String() string {
	return fmt.Sprintf("freq.View(%s)", v.sk)
}
