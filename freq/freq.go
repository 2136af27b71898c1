// Package freq is the public face of this repository: a weighted
// frequent-items sketch (Anderson et al., IMC 2017 — the algorithm behind
// the Apache DataSketches Frequent Items sketch) exposed as one generic
// type over every backend the implementation provides.
//
// Sketch[T] answers "which items carry the most total weight?" over a
// stream of (item, weight) pairs using a fixed number of counters k,
// guaranteeing LowerBound(x) <= f(x) <= UpperBound(x) with
// UpperBound - LowerBound <= MaximumError() for every item. When T is
// int64 or uint64 the sketch runs on the §2.3.3 parallel-array table
// (amortized O(1) updates, 24k bytes at full size); for any other
// comparable type it falls back to the map-backed generic implementation,
// trading roughly 3x memory and some constant-factor speed.
//
//	sk, _ := freq.New[uint64](1024)
//	sk.Update(srcIP, packetBytes)
//	for _, row := range sk.Query().Where(threshold).Collect() {
//		fmt.Println(row.Item, row.Estimate)
//	}
//
// Concurrent[T] is the goroutine-safe sharded variant for parallel
// ingest, Signed[T] the two-sketch turnstile recipe of §1.3 for streams
// with deletions. Construction is uniform across all three:
// freq.New / freq.NewConcurrent / freq.NewSigned with functional options
// (WithQuantile, WithSMIN, WithSampleSize, WithSeed, WithShards,
// WithoutGrowth). Sketches serialize via encoding.BinaryMarshaler /
// BinaryUnmarshaler and stream via WriteTo / ReadFrom.
//
// Subpackages round out the system: freq/stream generates and stores the
// paper's workloads, freq/server runs the summary as a TCP service,
// freq/store persists rotated window slots, and freq/tenant serves many
// independent streams from one registry. cmd/experiments regenerates the
// paper's evaluation figures.
package freq

import (
	"fmt"
	"iter"
	"reflect"
	"unsafe"

	"repro/internal/core"
	"repro/internal/items"
)

// Sketch is a weighted frequent-items summary over items of type T.
// It is not safe for concurrent use; see Concurrent for parallel ingest.
//
// Exactly one backend is active per instantiation: the parallel-array
// core sketch when T's underlying kind is int64 or uint64, the generic
// map-backed sketch otherwise.
type Sketch[T comparable] struct {
	fast *core.Sketch
	slow *items.Sketch[T]
	// serde overrides the built-in item codecs for marshaling sketches
	// over types other than int64/uint64/string.
	serde SerDe[T]
}

// fastKind reports whether T updates compile down to the parallel-array
// core sketch. Resolved once per constructed sketch, never per update.
func fastKind[T comparable]() bool {
	var zero T
	switch k := reflect.TypeOf(zero).Kind(); k {
	case reflect.Int64, reflect.Uint64:
		return true
	}
	return false
}

// asInt64 reinterprets item as an int64. Called only on the fast path,
// which is selected exactly when T is an 8-byte integer kind, so the
// conversion is a free, lossless bit cast.
//
//freq:noalloc
func asInt64[T comparable](item T) int64 {
	return *(*int64)(unsafe.Pointer(&item))
}

// fromInt64 is the inverse bit cast, used to surface stored items back as
// T in query results.
//
//freq:noalloc
func fromInt64[T comparable](v int64) T {
	return *(*T)(unsafe.Pointer(&v))
}

// asInt64Slice reinterprets a whole []T as []int64 without copying.
// Called only on the fast path, where T is an 8-byte integer kind, so
// layout and alignment match exactly.
//
//freq:noalloc
func asInt64Slice[T comparable](items []T) []int64 {
	if len(items) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&items[0])), len(items))
}

// checkWeights validates a batch's parallel arrays against the facade
// sentinels: equal lengths and no negative weights.
func checkWeights[T comparable](items []T, weights []int64) error {
	if len(items) != len(weights) {
		return fmt.Errorf("%w: %d items, %d weights", ErrLengthMismatch, len(items), len(weights))
	}
	for _, w := range weights {
		if w < 0 {
			return negativeWeight(w)
		}
	}
	return nil
}

// negativeWeight is the rejection the facade's updates and batches and
// the Writer's pair blocks return for a negative weight, so a server
// answers a rejected block with the same ERR line whichever framing
// carried it. It wraps ErrNegativeWeight.
func negativeWeight(w int64) error {
	return fmt.Errorf("%w: %d (use freq.Signed for deletions)", ErrNegativeWeight, w)
}

// New returns a sketch tracking up to k counters, configured by opts. The
// defaults are the paper's headline configuration: SMED (median decrement
// quantile), sample size ℓ = 1024, adaptive table growth, and a random
// per-sketch hash seed. Budgets below the smallest supported table round
// up to 6 counters on the fast path.
func New[T comparable](k int, opts ...Option) (*Sketch[T], error) {
	cfg, err := resolve(k, opts)
	if err != nil {
		return nil, err
	}
	return newFromConfig[T](cfg)
}

func newFromConfig[T comparable](cfg config) (*Sketch[T], error) {
	if fastKind[T]() {
		fast, err := core.NewWithOptions(cfg.coreOptions())
		if err != nil {
			return nil, mapCoreErr(err)
		}
		return &Sketch[T]{fast: fast}, nil
	}
	slow, err := items.NewWithConfig[T](cfg.k, cfg.itemsQuantile(), cfg.sampleSize)
	if err != nil {
		return nil, fmt.Errorf("freq: %w", err)
	}
	return &Sketch[T]{slow: slow}, nil
}

// mapCoreErr converts residual core constructor failures (those not
// pre-validated by resolve) onto the package sentinels.
func mapCoreErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrTooManyCounters, err)
}

// Update adds weight to item's frequency. Zero weights are no-ops;
// negative weights return ErrNegativeWeight (use Signed for deletions).
func (s *Sketch[T]) Update(item T, weight int64) error {
	if weight < 0 {
		return negativeWeight(weight)
	}
	if s.fast != nil {
		return s.fast.Update(asInt64(item), weight)
	}
	return s.slow.Update(item, weight)
}

// update is Update for callers that already rejected negative weights:
// one call into the backend.
func (s *Sketch[T]) update(item T, weight int64) error {
	if s.fast != nil {
		return s.fast.Update(asInt64(item), weight)
	}
	return s.slow.Update(item, weight)
}

// updatePairs applies pairs in order, all or nothing: a negative weight
// anywhere rejects the whole run before any update. It is how every
// batch reaches a Concurrent's shards (a Writer's flush, a partitioned
// UpdateWeightedBatch): the parallel-array backend takes the pair
// buffer as-is.
//
//freq:noalloc
func (s *Sketch[T]) updatePairs(pairs []pair[T]) error {
	if s.fast != nil {
		return s.fast.UpdatePairs(asPairSlice(pairs))
	}
	for _, p := range pairs {
		if p.weight < 0 {
			//freqvet:ignore noalloc cold rejection path; the run is refused before any work
			return negativeWeight(p.weight)
		}
	}
	for _, p := range pairs {
		_ = s.slow.Update(p.item, p.weight)
	}
	return nil
}

// mergeDisjoint folds other into s like Merge, for summaries that track
// disjoint item sets (a Concurrent's shards): the parallel-array
// backend skips the found check and pre-grows once (core.MergeDisjoint),
// whose answers equal Merge's whenever s's budget admits every counter.
func (s *Sketch[T]) mergeDisjoint(other *Sketch[T]) {
	if s.fast != nil {
		s.fast.MergeDisjoint(other.fast)
		return
	}
	s.slow.Merge(other.slow)
}

// UpdateOne adds a unit-weight occurrence of item.
func (s *Sketch[T]) UpdateOne(item T) {
	if s.fast != nil {
		s.fast.UpdateOne(asInt64(item))
		return
	}
	s.slow.UpdateOne(item)
}

// UpdateBatch adds a unit-weight occurrence of every item in items, in
// order — equivalent to an UpdateOne loop, but the growth/decrement check
// (and on the fast path, the facade call) is amortized across the batch.
func (s *Sketch[T]) UpdateBatch(items []T) {
	if s.fast != nil {
		s.fast.UpdateBatch(asInt64Slice(items))
		return
	}
	s.slow.UpdateBatch(items)
}

// UpdateWeightedBatch adds weights[i] to items[i]'s frequency for every i,
// in order — the batched hot path of the ingestion pipeline, producing
// exactly the state of the equivalent Update loop. The slices must have
// equal length (ErrLengthMismatch). Unlike an Update loop, validation is
// all-or-nothing: a negative weight anywhere returns ErrNegativeWeight
// before any update is applied. Zero weights are skipped.
func (s *Sketch[T]) UpdateWeightedBatch(items []T, weights []int64) error {
	if err := checkWeights(items, weights); err != nil {
		return err
	}
	if s.fast != nil {
		return s.fast.UpdateWeightedBatch(asInt64Slice(items), weights)
	}
	return s.slow.UpdateWeightedBatch(items, weights)
}

// Estimate returns the hybrid point estimate f̂(item): within
// MaximumError above the truth for tracked items, exactly 0 for items
// never seen or evicted.
func (s *Sketch[T]) Estimate(item T) int64 {
	if s.fast != nil {
		return s.fast.Estimate(asInt64(item))
	}
	return s.slow.Estimate(item)
}

// EstimateBatch returns the point estimates for every item, writing
// them to dst (reallocated only when too small) and returning it — the
// batch read path of the query layer. On the fast path the lookups run
// the pipelined batch probe kernel, overlapping their cache misses; the
// result slice has len(items) with dst[i] answering items[i].
func (s *Sketch[T]) EstimateBatch(items []T, dst []int64) []int64 {
	if s.fast != nil {
		return s.fast.EstimateBatch(asInt64Slice(items), dst)
	}
	if cap(dst) < len(items) {
		dst = make([]int64, len(items))
	} else {
		dst = dst[:len(items)]
	}
	for i, item := range items {
		dst[i] = s.slow.Estimate(item)
	}
	return dst
}

// LowerBound returns a value certainly <= item's true frequency.
func (s *Sketch[T]) LowerBound(item T) int64 {
	if s.fast != nil {
		return s.fast.LowerBound(asInt64(item))
	}
	return s.slow.LowerBound(item)
}

// UpperBound returns a value certainly >= item's true frequency.
func (s *Sketch[T]) UpperBound(item T) int64 {
	if s.fast != nil {
		return s.fast.UpperBound(asInt64(item))
	}
	return s.slow.UpperBound(item)
}

// appendLargest appends the min(n, NumActive) tracked items with the
// largest counters (their LowerBounds) to dst as (item, counter) pairs,
// in unspecified order; every counter left out is no larger than the
// smallest one appended. The fast path runs the table-scan kernel; the
// generic path selects with the query layer's one-pass scan, whose
// order on a single sketch is the counter order (not with a limited
// Query, which would list through appendLargest again).
func (s *Sketch[T]) appendLargest(dst []pair[T], n int) []pair[T] {
	if s.fast != nil {
		return fromPairSlice[T](s.fast.AppendLargest(asPairSlice(dst), n))
	}
	for _, r := range From[T](s).firstRows(s, max(n, 0)) {
		dst = append(dst, pair[T]{r.Item, r.LowerBound})
	}
	return dst
}

// topRows certifies the sketch's top n from its n+1 largest counters
// (see listTop).
func (s *Sketch[T]) topRows(n int) ([]Row[T], bool) {
	return listTop(n, func(list func(*Sketch[T])) { list(s) })
}

// MaximumError returns the additive error band of any estimate:
// UpperBound(x) - LowerBound(x) for every tracked item x.
func (s *Sketch[T]) MaximumError() int64 {
	if s.fast != nil {
		return s.fast.MaximumError()
	}
	return s.slow.MaximumError()
}

// StreamWeight returns N, the total weight processed, including weight
// merged in from other sketches.
func (s *Sketch[T]) StreamWeight() int64 {
	if s.fast != nil {
		return s.fast.StreamWeight()
	}
	return s.slow.StreamWeight()
}

// NumActive returns the number of assigned counters.
func (s *Sketch[T]) NumActive() int {
	if s.fast != nil {
		return s.fast.NumActive()
	}
	return s.slow.NumActive()
}

// MaxCounters returns the counter budget k.
func (s *Sketch[T]) MaxCounters() int {
	if s.fast != nil {
		return s.fast.MaxCounters()
	}
	return s.slow.MaxCounters()
}

// Quantile returns the effective decrement quantile; 0 means SMIN,
// regardless of backend.
func (s *Sketch[T]) Quantile() float64 {
	if s.fast != nil {
		return s.fast.Quantile()
	}
	return s.slow.Quantile()
}

// SampleSize returns ℓ, the number of counters sampled per decrement.
func (s *Sketch[T]) SampleSize() int {
	if s.fast != nil {
		return s.fast.SampleSize()
	}
	return s.slow.SampleSize()
}

// IsEmpty reports whether the sketch has processed no weight.
func (s *Sketch[T]) IsEmpty() bool {
	if s.fast != nil {
		return s.fast.IsEmpty()
	}
	return s.slow.IsEmpty()
}

// SizeBytes returns the current in-memory footprint of the counter store:
// exact 18 bytes per table slot on the fast path, an approximation
// (48 bytes per counter, excluding item payloads) on the generic path.
func (s *Sketch[T]) SizeBytes() int {
	if s.fast != nil {
		return s.fast.SizeBytes()
	}
	return 48 * s.slow.NumActive()
}

// MaxSizeBytes returns the full-size footprint: the §2.3.3 accounting of
// 24k bytes on the fast path, the 48-bytes-per-counter approximation on
// the generic path.
func (s *Sketch[T]) MaxSizeBytes() int {
	if s.fast != nil {
		return s.fast.MaxSizeBytes()
	}
	return 48 * s.slow.MaxCounters()
}

// Reset returns the sketch to its freshly constructed state, keeping its
// configuration.
func (s *Sketch[T]) Reset() {
	if s.fast != nil {
		s.fast.Reset()
		return
	}
	s.slow.Reset()
}

// Clear empties the sketch in place without allocating: the fast path
// recycles its table (growth it accumulated is retained) via core.Clear,
// the generic path clears its map in place. Unlike Reset, a cleared
// sketch keeps its full-size table, so refilling it to the same
// occupancy — the store's pooled range-query accumulator, a recycled
// window slot — allocates nothing.
func (s *Sketch[T]) Clear() { s.clearInPlace() }

// clearInPlace empties the sketch without allocating: the fast path
// recycles its table via core.Clear, the generic path clears its map in
// place. It is the slot-recycling step of ConcurrentWindowed rotation.
func (s *Sketch[T]) clearInPlace() {
	if s.fast != nil {
		s.fast.Clear()
		return
	}
	s.slow.Reset()
}

// Merge folds other into s per Algorithm 5 — s then summarizes the
// concatenation of both streams, with additive error bands (Theorem 5) —
// and returns s for chaining. other is not modified.
func (s *Sketch[T]) Merge(other *Sketch[T]) *Sketch[T] {
	if other == nil || other == s {
		return s
	}
	if s.fast != nil {
		s.fast.Merge(other.fast)
		return s
	}
	s.slow.Merge(other.slow)
	return s
}

// All iterates every tracked row as (item, row) pairs, in unspecified
// order, without materializing or sorting the result — the streaming
// read primitive Query builds on. The sketch must not be mutated while
// the iterator is live.
func (s *Sketch[T]) All() iter.Seq2[T, Row[T]] {
	return func(yield func(T, Row[T]) bool) {
		if s.fast != nil {
			for r := range s.fast.All() {
				row := Row[T]{
					Item:       fromInt64[T](r.Item),
					Estimate:   r.Estimate,
					LowerBound: r.LowerBound,
					UpperBound: r.UpperBound,
				}
				if !yield(row.Item, row) {
					return
				}
			}
			return
		}
		for r := range s.slow.All() {
			row := Row[T]{Item: r.Item, Estimate: r.Estimate, LowerBound: r.LowerBound, UpperBound: r.UpperBound}
			if !yield(row.Item, row) {
				return
			}
		}
	}
}

// Query starts a composable query over the sketch: filters, ordering,
// and pagination with iterator results (see Query and From).
func (s *Sketch[T]) Query() *Query[T] { return From[T](s) }

// String summarizes the sketch state for humans.
func (s *Sketch[T]) String() string {
	backend := "generic"
	if s.fast != nil {
		backend = "fast"
	}
	q := s.Quantile()
	policy := fmt.Sprintf("q=%.2f", q)
	if q == 0 {
		policy = "SMIN"
	}
	return fmt.Sprintf("freq.Sketch(k=%d, %s, l=%d, %s): N=%d, active=%d, err=%d",
		s.MaxCounters(), policy, s.SampleSize(), backend,
		s.StreamWeight(), s.NumActive(), s.MaximumError())
}
