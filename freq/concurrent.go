package freq

import (
	"hash/maphash"
	"iter"
	"sync"
	"sync/atomic"

	"repro/internal/sharded"
	"repro/internal/xrand"
)

// Concurrent is the goroutine-safe counterpart of Sketch: the total
// counter budget is spread over hash-partitioned shards (WithShards,
// default 8, rounded up to a power of two), each a Sketch summarizing
// its slice of the stream under its own lock — the concurrency pattern
// the paper's §3 mergeability story enables. Point queries (Estimate,
// bounds) touch exactly one shard and carry that shard's (smaller)
// error band. A top-k query (Query with a Limit, in the default order,
// unfiltered) reads each shard's largest counters and merges nothing
// whenever they hold the merged view's top rows; every other row query
// (All, and Query with a filter, another order or no Limit) answers
// from the epoch-cached merged View, so repeated reads with no
// interleaved writes perform zero additional shard merges. Both give
// the view's rows.
//
// Every item type shares this one implementation; only routing differs.
// int64 and uint64 items (the parallel-array backend) route through
// internal/sharded's route hash, every other comparable type through
// maphash.
type Concurrent[T comparable] struct {
	shards []shard[T]
	// route picks the shard of an 8-byte integer item (ints); items of
	// every other type hash through maphash with hseed instead.
	route sharded.Route
	hseed maphash.Seed
	ints  bool
	// cfg is the construction configuration. Merged views and snapshots
	// take their decrement policy, sample size and pinned seed from it.
	cfg config

	// Epoch-cached merged read view (see View). viewMu guards the three
	// fields below; it is never held while a shard lock is being waited
	// on by a writer, so readers cannot stall the ingest path beyond the
	// shard-at-a-time merge a snapshot already costs.
	viewMu     sync.Mutex
	view       *Sketch[T]
	viewEpochs []uint64
	viewMerges int64
}

type shard[T comparable] struct {
	mu sync.Mutex
	// s is the shard's summary. Every access goes through mu, and every
	// mutating call bumps epoch inside the same locked region so the
	// epoch-cached merged view can never serve a stale snapshot as
	// fresh — the contract the epochlock analyzer enforces.
	//
	//freq:guardedBy(mu)
	//freq:epoch(epoch, update updatePairs clearInPlace)
	s *Sketch[T]
	// epoch counts mutations to this shard. It is incremented (atomically,
	// under mu) by every write path and read without the lock by View's
	// freshness check, so a cached merged view can be reused for free while
	// no shard has changed.
	epoch atomic.Uint64
	// Pad the struct to a full 64-byte cache line (8 mutex + 8 pointer +
	// 8 epoch + 40) so neighbouring shard locks do not false-share.
	_ [40]byte
}

// mixSeed derives a pinned seed with the SplitMix64 finalizer, never
// zero (zero would re-randomize the sketch it seeds).
func mixSeed(x uint64) uint64 {
	if s := xrand.Mix64(x); s != 0 {
		return s
	}
	return 1
}

// NewConcurrent returns a goroutine-safe sketch with counter budget k
// spread over the configured shards. Per-shard budgets round up to the
// smallest supported size rather than error. When WithSeed pins a seed,
// each shard, the route hash and the merged views derive distinct seeds
// from it, so a pinned seed stays reproducible without correlating the
// shards' tables.
func NewConcurrent[T comparable](k int, opts ...Option) (*Concurrent[T], error) {
	cfg, err := resolve(k, opts)
	if err != nil {
		return nil, err
	}
	n := sharded.NumShardsFor(cfg.shards)
	c := &Concurrent[T]{
		shards:     make([]shard[T], n),
		route:      sharded.NewRoute(n, cfg.seed),
		hseed:      maphash.MakeSeed(),
		ints:       fastKind[T](),
		cfg:        cfg,
		viewEpochs: make([]uint64, n),
	}
	shardCfg := cfg
	shardCfg.k = max(cfg.k/n, 1)
	for i := range c.shards {
		if cfg.seed != 0 {
			shardCfg.seed = mixSeed(cfg.seed + uint64(i)*0x9e3779b97f4a7c15)
		}
		s, err := newFromConfig[T](shardCfg)
		if err != nil {
			return nil, err
		}
		//freqvet:ignore epochlock constructor runs before the sketch is published; no reader can exist yet
		c.shards[i].s = s
	}
	return c, nil
}

// shardFor routes an item to its shard. The route of an 8-byte integer
// inlines; the maphash route cannot and stays behind a call.
func (c *Concurrent[T]) shardFor(item T) *shard[T] {
	if c.ints {
		return &c.shards[c.route.ShardIndex(asInt64(item))]
	}
	return &c.shards[c.hashIndex(item)]
}

// hashIndex routes an item whose type is not an 8-byte integer kind.
func (c *Concurrent[T]) hashIndex(item T) int {
	return int(maphash.Comparable(c.hseed, item) & uint64(len(c.shards)-1))
}

// NumShards returns the shard count.
func (c *Concurrent[T]) NumShards() int { return len(c.shards) }

// Update adds weight to item's frequency; safe for concurrent use.
func (c *Concurrent[T]) Update(item T, weight int64) error {
	if weight < 0 {
		return ErrNegativeWeight
	}
	sh := c.shardFor(item)
	sh.mu.Lock()
	sh.epoch.Add(1)
	err := sh.s.update(item, weight)
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
func (c *Concurrent[T]) UpdateBatch(items []T) { c.updateBatch(items, nil) }

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
	c.updateBatch(items, weights)
	return nil
}

// partition is the counting pass of the batch paths' counting sort: it
// returns each item's shard and, per shard, the offset where its run
// starts when the items are laid out shard by shard. Placing item i at
// offsets[idx[i]] and advancing that offset keeps input order within
// each run and leaves offsets[j] at the end of shard j's run. The route
// is chosen once, outside the per-item loop.
func (c *Concurrent[T]) partition(items []T) (idx []int32, offsets []int) {
	idx = make([]int32, len(items))
	offsets = make([]int, len(c.shards))
	if c.ints {
		for i, item := range asInt64Slice(items) {
			j := c.route.ShardIndex(item)
			idx[i] = int32(j)
			offsets[j]++
		}
	} else {
		for i, item := range items {
			j := c.hashIndex(item)
			idx[i] = int32(j)
			offsets[j]++
		}
	}
	start := 0
	for j, n := range offsets {
		offsets[j], start = start, start+n
	}
	return idx, offsets
}

// updateBatch partitions a validated batch by shard and applies each
// shard's run of pairs under a single lock acquisition, in input order
// within the shard. A nil weights slice means all-unit weights.
func (c *Concurrent[T]) updateBatch(items []T, weights []int64) {
	if len(items) == 0 {
		return
	}
	idx, ends := c.partition(items)
	pairs := make([]pair[T], len(items))
	for i, item := range items {
		w := int64(1)
		if weights != nil {
			w = weights[i]
		}
		j := idx[i]
		pairs[ends[j]] = pair[T]{item, w}
		ends[j]++
	}
	lo := 0
	for j, hi := range ends {
		if lo < hi {
			sh := &c.shards[j]
			sh.mu.Lock()
			sh.epoch.Add(1)
			// Weights were validated by the caller; the run cannot fail.
			_ = sh.s.updatePairs(pairs[lo:hi])
			sh.mu.Unlock()
		}
		lo = hi
	}
}

// Estimate returns the point estimate for item; safe for concurrent use.
func (c *Concurrent[T]) Estimate(item T) int64 {
	sh := c.shardFor(item)
	sh.mu.Lock()
	v := sh.s.Estimate(item)
	sh.mu.Unlock()
	return v
}

// EstimateBatch returns the point estimates for every item, writing
// them to dst (reallocated only when too small) and returning it; safe
// for concurrent use. The batch is partitioned by shard with the same
// counting sort as the write path, each shard is queried under one lock
// acquisition through its batch lookup (the pipelined probe kernel on
// the parallel-array backend), and the results are scattered back to
// input order. Each estimate reflects its own shard at a consistent
// point and carries that shard's error band, exactly like Estimate.
func (c *Concurrent[T]) EstimateBatch(items []T, dst []int64) []int64 {
	if cap(dst) < len(items) {
		dst = make([]int64, len(items))
	} else {
		dst = dst[:len(items)]
	}
	if len(items) == 0 {
		return dst
	}
	idx, ends := c.partition(items)
	run := make([]T, len(items))
	pos := make([]int32, len(items))
	vals := make([]int64, len(items))
	for i, item := range items {
		j := idx[i]
		run[ends[j]], pos[ends[j]] = item, int32(i)
		ends[j]++
	}
	lo := 0
	for j, hi := range ends {
		if lo < hi {
			sh := &c.shards[j]
			sh.mu.Lock()
			sh.s.EstimateBatch(run[lo:hi], vals[lo:hi])
			sh.mu.Unlock()
		}
		lo = hi
	}
	for p, i := range pos {
		dst[i] = vals[p]
	}
	return dst
}

// LowerBound returns a certain lower bound on item's frequency.
func (c *Concurrent[T]) LowerBound(item T) int64 {
	sh := c.shardFor(item)
	sh.mu.Lock()
	v := sh.s.LowerBound(item)
	sh.mu.Unlock()
	return v
}

// UpperBound returns a certain upper bound on item's frequency.
func (c *Concurrent[T]) UpperBound(item T) int64 {
	sh := c.shardFor(item)
	sh.mu.Lock()
	v := sh.s.UpperBound(item)
	sh.mu.Unlock()
	return v
}

// StreamWeight returns N summed over shards — a consistent total only
// when no updates race the call; under concurrency it is a lower bound
// on the weight of all updates that started before it returned.
func (c *Concurrent[T]) StreamWeight() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.s.StreamWeight()
		sh.mu.Unlock()
	}
	return n
}

// MaximumError returns the largest per-shard error band; every estimate
// is within its own shard's (smaller or equal) band.
func (c *Concurrent[T]) MaximumError() int64 {
	var worst int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		worst = max(worst, sh.s.MaximumError())
		sh.mu.Unlock()
	}
	return worst
}

// mergeSketch returns an empty summary with the shards' decrement
// policy and sample size and the given counter budget, to merge shards
// into. Growth stays enabled: the disjoint merge pre-grows to the
// actual counter count in one step, so a sparse sketch gets a small
// merged table instead of one sized for the full budget. Under a pinned
// seed its hash seed derives from the pinned one, so the merged view
// never shares a hash function with a shard; unpinned sketches keep the
// random per-sketch draw.
func (c *Concurrent[T]) mergeSketch(budget int) (*Sketch[T], error) {
	cfg := c.cfg
	cfg.k, cfg.noGrowth = budget, false
	if cfg.seed != 0 {
		cfg.seed = mixSeed(mixSeed(cfg.seed^0x51ed270b9f602a4d) + 0x9e3779b97f4a7c15)
	}
	return newFromConfig[T](cfg)
}

// merge merges every shard into one summary — the kernel shared by
// Snapshot and View. Items are hash-partitioned, so shard item sets are
// disjoint, and the combined budget admits every counter, so no
// decrement fires and the result is exact over the shards' states. The
// shards fold in one at a time, in shard order, each under its own
// lock, so a pinned seed gives the same table, and the same encoding,
// on every host. When epochs is non-nil, each shard's epoch is captured
// under the same lock hold as its merge, so it describes exactly the
// state folded in.
func (c *Concurrent[T]) merge(epochs []uint64) (*Sketch[T], error) {
	k := 0
	for i := range c.shards {
		//freqvet:ignore epochlock MaxCounters is construction-time config, immutable after New
		k += c.shards[i].s.MaxCounters()
	}
	out, err := c.mergeSketch(k)
	if err != nil {
		return nil, err
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if epochs != nil {
			epochs[i] = sh.epoch.Load()
		}
		out.mergeDisjoint(sh.s)
		sh.mu.Unlock()
	}
	return out, nil
}

// View returns the epoch-cached snapshot-isolated read view: a single
// merged summary of all shards (Algorithm 5), rebuilt only when some
// shard has been written since the last call — repeated reads with no
// interleaved writes reuse the cache and perform zero additional shard
// merges. A rebuild folds the shards in one at a time; a write landing
// after a shard was read bumps its epoch and invalidates the cache. The
// view is immutable, safe for any number of concurrent readers, and
// keeps answering from its frozen state while the live sketch moves on. A
// view taken under concurrent updates reflects each shard at a
// (possibly different) consistent point, exactly like Snapshot. Its
// bounds are the merged summary's single global error band (the same
// answer a coordinator holding the merged snapshot would give), in
// contrast to the tighter per-shard bands of the live point queries. A
// top-k Query on the live sketch usually skips the rebuild (see Query);
// one on the view ranks the frozen state.
func (c *Concurrent[T]) View() (*View[T], error) {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	if c.view == nil || !c.viewFresh() {
		v, err := c.merge(c.viewEpochs)
		if err != nil {
			return nil, err
		}
		c.view = v
		c.viewMerges += int64(len(c.shards))
	}
	return &View[T]{sk: c.view}, nil
}

// viewFresh reports whether no shard has been written since the cached
// view was built. Caller holds viewMu.
//
//freq:locked(viewMu)
func (c *Concurrent[T]) viewFresh() bool {
	for i := range c.shards {
		if c.shards[i].epoch.Load() != c.viewEpochs[i] {
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
// when they hold the view's top n (see listTop).
func (c *Concurrent[T]) Query() *Query[T] { return From[T](c) }

// topRows lists each shard's largest counters, under its own lock
// together with its offset, and certifies the view's top n from them
// (see listTop): shards hold disjoint items and the view merges them
// without a decrement.
func (c *Concurrent[T]) topRows(n int) ([]Row[T], bool) {
	return listTop(n, func(list func(*Sketch[T])) {
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			list(sh.s)
			sh.mu.Unlock()
		}
	})
}

// Snapshot merges all shards into a single fresh Sketch with the combined
// counter budget via Algorithm 5 (the merge behind View). The
// result is independent of the concurrent sketch and is the unit of
// serialization and cross-process merging: snapshot, ship, Merge. Shards
// are locked one at a time, so a snapshot taken under concurrent updates
// reflects each shard at a (possibly different) consistent point.
func (c *Concurrent[T]) Snapshot() (*Sketch[T], error) { return c.merge(nil) }

// MarshalBinary implements encoding.BinaryMarshaler by serializing a
// snapshot; decode it with Sketch.UnmarshalBinary.
func (c *Concurrent[T]) MarshalBinary() ([]byte, error) {
	snap, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	return snap.MarshalBinary()
}

// Reset clears every shard in place (and invalidates any cached read
// view). Each shard keeps its table allocation, growth included, so a
// reset allocates nothing and the next write burst skips the ramp-up
// rehashes; memory stays at the high-water mark.
func (c *Concurrent[T]) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.epoch.Add(1)
		sh.s.clearInPlace()
		sh.mu.Unlock()
	}
}
