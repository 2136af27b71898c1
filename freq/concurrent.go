package freq

import (
	"hash/maphash"
	"iter"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/items"
	"repro/internal/sharded"
)

// Concurrent is the goroutine-safe counterpart of Sketch: the total
// counter budget is spread over hash-partitioned shards (WithShards,
// default 8, rounded up to a power of two), each summarizing its slice of
// the stream under its own lock — the concurrency pattern the paper's §3
// mergeability story enables. Point queries (Estimate, bounds) touch
// exactly one shard and carry that shard's (smaller) error band. A top-k
// query (Query with a Limit, in the default order, unfiltered) on the
// fast backend reads each shard's largest counters and merges nothing
// whenever they hold the merged view's top rows; every other row query
// (All, and Query with a filter, another order or no Limit) answers
// from the epoch-cached merged View, so repeated reads with no
// interleaved writes perform zero additional shard merges. Both give
// the view's rows.
//
// Like Sketch, it compiles down to the parallel-array backend for int64
// and uint64 items and falls back to the generic map-backed backend for
// every other comparable type.
type Concurrent[T comparable] struct {
	fast *sharded.Sketch

	slow  []itemShard[T]
	mask  uint64
	hseed maphash.Seed

	// Epoch-cached merged read view for the generic backend (the fast
	// backend caches inside internal/sharded). Guarded by viewMu.
	viewMu     sync.Mutex
	view       *items.Sketch[T]
	viewEpochs []uint64
	viewMerges int64
}

type itemShard[T comparable] struct {
	mu sync.Mutex
	// s is the shard's summary. Every access goes through mu, and every
	// mutating call bumps epoch inside the same locked region — the
	// freshness contract slowView relies on, enforced by the epochlock
	// analyzer.
	//
	//freq:guardedBy(mu)
	//freq:epoch(epoch, Update UpdateBatch UpdateWeightedBatch Reset)
	s *items.Sketch[T]
	// epoch counts mutations to this shard (bumped under mu, read
	// atomically by the view freshness check).
	epoch atomic.Uint64
	// Pad the struct to a full 64-byte cache line (8 mutex + 8 pointer +
	// 8 epoch + 40) so neighbouring shard locks do not false-share.
	_ [40]byte
}

// NewConcurrent returns a goroutine-safe sketch with counter budget k
// spread over the configured shards. Per-shard budgets round up to the
// smallest supported size rather than error.
func NewConcurrent[T comparable](k int, opts ...Option) (*Concurrent[T], error) {
	cfg, err := resolve(k, opts)
	if err != nil {
		return nil, err
	}
	n := sharded.NumShardsFor(cfg.shards)
	if fastKind[T]() {
		perShard := cfg.coreOptions()
		perShard.MaxCounters = max(cfg.k/n, core.MinCounters)
		fast, err := sharded.NewWithOptions(n, perShard)
		if err != nil {
			return nil, mapCoreErr(err)
		}
		return &Concurrent[T]{fast: fast}, nil
	}
	c := &Concurrent[T]{
		slow:  make([]itemShard[T], n),
		mask:  uint64(n - 1),
		hseed: maphash.MakeSeed(),
	}
	for i := range c.slow {
		s, err := items.NewWithConfig[T](max(cfg.k/n, 1), cfg.itemsQuantile(), cfg.sampleSize)
		if err != nil {
			return nil, err
		}
		//freqvet:ignore epochlock constructor runs before the sketch is published; no reader can exist yet
		c.slow[i].s = s
	}
	return c, nil
}

// shardFor routes an item to its shard on the generic path.
func (c *Concurrent[T]) shardFor(item T) *itemShard[T] {
	return &c.slow[maphash.Comparable(c.hseed, item)&c.mask]
}

// NumShards returns the shard count.
func (c *Concurrent[T]) NumShards() int {
	if c.fast != nil {
		return c.fast.NumShards()
	}
	return len(c.slow)
}

// Update adds weight to item's frequency; safe for concurrent use.
func (c *Concurrent[T]) Update(item T, weight int64) error {
	if weight < 0 {
		return ErrNegativeWeight
	}
	if c.fast != nil {
		return c.fast.Update(asInt64(item), weight)
	}
	sh := c.shardFor(item)
	sh.mu.Lock()
	sh.epoch.Add(1)
	err := sh.s.Update(item, weight)
	sh.mu.Unlock()
	return err
}

// UpdateOne adds a unit-weight occurrence of item; safe for concurrent
// use.
func (c *Concurrent[T]) UpdateOne(item T) { _ = c.Update(item, 1) }

// UpdateBatch adds a unit-weight occurrence of every item; safe for
// concurrent use. Items are partitioned by shard and each shard's slice
// is applied under a single lock acquisition. For a long-lived ingest
// goroutine, a Writer amortizes the partitioning too.
func (c *Concurrent[T]) UpdateBatch(items []T) {
	if c.fast != nil {
		c.fast.UpdateBatch(asInt64Slice(items))
		return
	}
	c.slowBatch(items, nil)
}

// UpdateWeightedBatch adds weights[i] to items[i]'s frequency for every
// i; safe for concurrent use. Items are partitioned by shard and each
// shard's slice is applied under a single lock acquisition, so the
// per-update locking cost is amortized across the batch. Validation is
// all-or-nothing: mismatched lengths (ErrLengthMismatch) or a negative
// weight anywhere (ErrNegativeWeight) rejects the whole batch before any
// update is applied.
func (c *Concurrent[T]) UpdateWeightedBatch(items []T, weights []int64) error {
	if err := checkWeights(items, weights); err != nil {
		return err
	}
	if c.fast != nil {
		return c.fast.UpdateWeightedBatch(asInt64Slice(items), weights)
	}
	c.slowBatch(items, weights)
	return nil
}

// slowBatch partitions a validated batch by shard on the generic path and
// applies each group through the items batch path under one lock
// acquisition. A nil weights slice means all-unit weights.
func (c *Concurrent[T]) slowBatch(items []T, weights []int64) {
	if len(items) == 0 {
		return
	}
	n := len(c.slow)
	perItems := make([][]T, n)
	var perWeights [][]int64
	if weights != nil {
		perWeights = make([][]int64, n)
	}
	for i, item := range items {
		j := int(maphash.Comparable(c.hseed, item) & c.mask)
		perItems[j] = append(perItems[j], item)
		if weights != nil {
			perWeights[j] = append(perWeights[j], weights[i])
		}
	}
	for j := 0; j < n; j++ {
		if len(perItems[j]) == 0 {
			continue
		}
		sh := &c.slow[j]
		sh.mu.Lock()
		sh.epoch.Add(1)
		if weights == nil {
			sh.s.UpdateBatch(perItems[j])
		} else {
			// Weights were validated by the caller; cannot fail.
			_ = sh.s.UpdateWeightedBatch(perItems[j], perWeights[j])
		}
		sh.mu.Unlock()
	}
}

// Estimate returns the point estimate for item; safe for concurrent use.
func (c *Concurrent[T]) Estimate(item T) int64 {
	if c.fast != nil {
		return c.fast.Estimate(asInt64(item))
	}
	sh := c.shardFor(item)
	sh.mu.Lock()
	v := sh.s.Estimate(item)
	sh.mu.Unlock()
	return v
}

// EstimateBatch returns the point estimates for every item, writing
// them to dst (reallocated only when too small) and returning it; safe
// for concurrent use. On the fast path the batch is partitioned by
// shard, each shard queried under one lock acquisition through the
// pipelined batch-lookup kernel; each estimate reflects its own shard at
// a consistent point and carries that shard's error band, exactly like
// Estimate. The generic path falls back to per-item queries.
func (c *Concurrent[T]) EstimateBatch(items []T, dst []int64) []int64 {
	if c.fast != nil {
		return c.fast.EstimateBatch(asInt64Slice(items), dst)
	}
	if cap(dst) < len(items) {
		dst = make([]int64, len(items))
	} else {
		dst = dst[:len(items)]
	}
	for i, item := range items {
		dst[i] = c.Estimate(item)
	}
	return dst
}

// LowerBound returns a certain lower bound on item's frequency.
func (c *Concurrent[T]) LowerBound(item T) int64 {
	if c.fast != nil {
		return c.fast.LowerBound(asInt64(item))
	}
	sh := c.shardFor(item)
	sh.mu.Lock()
	v := sh.s.LowerBound(item)
	sh.mu.Unlock()
	return v
}

// UpperBound returns a certain upper bound on item's frequency.
func (c *Concurrent[T]) UpperBound(item T) int64 {
	if c.fast != nil {
		return c.fast.UpperBound(asInt64(item))
	}
	sh := c.shardFor(item)
	sh.mu.Lock()
	v := sh.s.UpperBound(item)
	sh.mu.Unlock()
	return v
}

// StreamWeight returns N summed over shards — a consistent total only
// when no updates race the call.
func (c *Concurrent[T]) StreamWeight() int64 {
	if c.fast != nil {
		return c.fast.StreamWeight()
	}
	var n int64
	for i := range c.slow {
		sh := &c.slow[i]
		sh.mu.Lock()
		n += sh.s.StreamWeight()
		sh.mu.Unlock()
	}
	return n
}

// MaximumError returns the largest per-shard error band; every estimate
// is within its own shard's (smaller or equal) band.
func (c *Concurrent[T]) MaximumError() int64 {
	if c.fast != nil {
		return c.fast.MaximumError()
	}
	var worst int64
	for i := range c.slow {
		sh := &c.slow[i]
		sh.mu.Lock()
		if e := sh.s.MaximumError(); e > worst {
			worst = e
		}
		sh.mu.Unlock()
	}
	return worst
}

// View returns the epoch-cached snapshot-isolated read view: a single
// merged summary of all shards (Algorithm 5), rebuilt only when some
// shard has been written since the last call — repeated reads with no
// interleaved writes reuse the cache and perform zero additional shard
// merges. The view is immutable, safe for any number of concurrent
// readers, and keeps answering from its frozen state while the live
// sketch moves on. Its bounds are the merged summary's single global
// error band (the same answer a coordinator holding the merged snapshot
// would give), in contrast to the tighter per-shard bands of the live
// point queries. A top-k Query on the live sketch usually skips the
// rebuild (see Query); one on the view ranks the frozen state.
func (c *Concurrent[T]) View() (*View[T], error) {
	if c.fast != nil {
		v, err := c.fast.View()
		if err != nil {
			return nil, mapCoreErr(err)
		}
		return &View[T]{sk: &Sketch[T]{fast: v}}, nil
	}
	v, err := c.slowView()
	if err != nil {
		return nil, err
	}
	return &View[T]{sk: &Sketch[T]{slow: v}}, nil
}

// slowView is View for the generic backend: same epoch-cache protocol as
// internal/sharded, over the map-backed per-shard sketches.
func (c *Concurrent[T]) slowView() (*items.Sketch[T], error) {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	if c.view != nil && c.slowViewFresh() {
		return c.view, nil
	}
	total := 0
	for i := range c.slow {
		//freqvet:ignore epochlock MaxCounters is construction-time config, immutable after New
		total += c.slow[i].s.MaxCounters()
	}
	//freqvet:ignore epochlock Quantile and SampleSize are construction-time config, immutable after New
	out, err := items.NewWithConfig[T](total, c.slow[0].s.Quantile(), c.slow[0].s.SampleSize())
	if err != nil {
		return nil, err
	}
	if c.viewEpochs == nil {
		c.viewEpochs = make([]uint64, len(c.slow))
	}
	for i := range c.slow {
		sh := &c.slow[i]
		sh.mu.Lock()
		c.viewEpochs[i] = sh.epoch.Load()
		out.Merge(sh.s)
		sh.mu.Unlock()
		c.viewMerges++
	}
	c.view = out
	return out, nil
}

// slowViewFresh reports whether no shard changed since the cached view
// was built. Caller holds viewMu.
//
//freq:locked(viewMu)
func (c *Concurrent[T]) slowViewFresh() bool {
	for i := range c.slow {
		if c.slow[i].epoch.Load() != c.viewEpochs[i] {
			return false
		}
	}
	return true
}

// ViewMerges returns the cumulative number of per-shard merges performed
// building read views — a diagnostic for asserting the epoch cache
// works: the count stays flat across repeated reads with no interleaved
// writes.
func (c *Concurrent[T]) ViewMerges() int64 {
	if c.fast != nil {
		return c.fast.ViewMerges()
	}
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	return c.viewMerges
}

// All iterates every tracked row of the epoch-cached merged view as
// (item, row) pairs, in unspecified order. Safe for concurrent use.
func (c *Concurrent[T]) All() iter.Seq2[T, Row[T]] {
	return func(yield func(T, Row[T]) bool) {
		v, err := c.View()
		if err != nil {
			return
		}
		for item, r := range v.All() {
			if !yield(item, r) {
				return
			}
		}
	}
}

// Query starts a composable query over the epoch-cached merged view. A
// query for the n rows with the largest estimates (the default order, a
// Limit, no filter) reads each shard's n+1 largest counters instead
// when they hold the view's top n (see topRows).
func (c *Concurrent[T]) Query() *Query[T] { return From[T](c) }

// topRows returns rows of the merged view among which are the n that
// sort first by descending estimate, or false when it cannot tell which
// those are without the view; only the fast backend tries. Shards hold
// disjoint items and the view merges them without a decrement, so an
// item's row in the view is its shard's counter c plus the summed shard
// offsets O, (c+O, c, c+O), and the view's top n lies in the union of
// the shards' largest counters. Each shard lists n+1 of them, so that
// what a shard leaves out is bounded by its (n+1)-th counter and a
// single shard, or one holding most of the top n, can still tell. An
// unlisted item holds at most cut, so when at least n listed counters
// exceed cut, every row at or below it sorts after them and is dropped;
// when no shard was cut, every row is listed. Otherwise (counters tie at
// a shard's cut, as on flat unit-weight traffic) it reports false.
func (c *Concurrent[T]) topRows(n int) ([]Row[T], bool) {
	if c.fast == nil {
		return nil, false
	}
	pairs, offset, cut := c.fast.AppendLargest(nil, n+min(1, math.MaxInt-n))
	above := 0
	for _, p := range pairs {
		if p.Value > cut {
			above++
		}
	}
	if cut >= 0 && above < n {
		return nil, false
	}
	rows := make([]Row[T], 0, above)
	for _, p := range pairs {
		if p.Value > cut {
			rows = append(rows, Row[T]{Item: fromInt64[T](p.Key), Estimate: p.Value + offset, LowerBound: p.Value, UpperBound: p.Value + offset})
		}
	}
	return rows, true
}

// Snapshot merges all shards into a single fresh Sketch with the combined
// counter budget via Algorithm 5. The result is independent of the
// concurrent sketch and is the unit of serialization and cross-process
// merging: snapshot, ship, Merge. Shards are locked one at a time, so a
// snapshot taken under concurrent updates reflects each shard at a
// (possibly different) consistent point.
func (c *Concurrent[T]) Snapshot() (*Sketch[T], error) {
	if c.fast != nil {
		snap, err := c.fast.Snapshot()
		if err != nil {
			return nil, mapCoreErr(err)
		}
		return &Sketch[T]{fast: snap}, nil
	}
	total := 0
	for i := range c.slow {
		//freqvet:ignore epochlock MaxCounters is construction-time config, immutable after New
		total += c.slow[i].s.MaxCounters()
	}
	// Carry the shards' shared decrement policy and sample size over to
	// the merged summary.
	//freqvet:ignore epochlock Quantile and SampleSize are construction-time config, immutable after New
	out, err := items.NewWithConfig[T](total, c.slow[0].s.Quantile(), c.slow[0].s.SampleSize())
	if err != nil {
		return nil, err
	}
	for i := range c.slow {
		sh := &c.slow[i]
		sh.mu.Lock()
		out.Merge(sh.s)
		sh.mu.Unlock()
	}
	return &Sketch[T]{slow: out}, nil
}

// MarshalBinary implements encoding.BinaryMarshaler by serializing a
// snapshot; decode it with Sketch.UnmarshalBinary.
func (c *Concurrent[T]) MarshalBinary() ([]byte, error) {
	snap, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	return snap.MarshalBinary()
}

// Reset clears every shard (and invalidates any cached read view).
func (c *Concurrent[T]) Reset() {
	if c.fast != nil {
		c.fast.Reset()
		return
	}
	for i := range c.slow {
		sh := &c.slow[i]
		sh.mu.Lock()
		sh.epoch.Add(1)
		sh.s.Reset()
		sh.mu.Unlock()
	}
}
