// Package sharded provides a goroutine-safe frequent-items sketch built
// from per-shard core sketches — the concurrency pattern the paper's §3
// mergeability story enables: shard by item hash, summarize each shard
// independently under its own lock, and combine results either per query
// (point queries touch exactly one shard) or by merging snapshots
// (Algorithm 5) when a single summary is needed.
//
// Because items are partitioned by hash, each item's counters live in
// exactly one shard: point queries and heavy-hitter extraction need no
// cross-shard reconciliation, and each estimate carries its own shard's
// error band rather than the sum of all of them.
package sharded

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/internal/xrand"
)

// Sketch is a goroutine-safe weighted frequent-items summary.
type Sketch struct {
	shards []shard
	mask   uint64
	seed   uint64
	// mergeSeed seeds the merged view/snapshot sketches when the shards
	// were built with a pinned seed: two sketches constructed with the
	// same seed then fed the same stream produce byte-identical snapshot
	// encodings — the reproducibility contract the wire protocol's
	// cross-framing conformance suite asserts. Zero (the unpinned case)
	// keeps the per-sketch random draw.
	mergeSeed uint64

	// Epoch-cached merged read view (see View). viewMu guards the three
	// fields below; it is never held while a shard lock is being waited
	// on by a writer, so readers cannot stall the ingest path beyond the
	// shard-at-a-time merge a snapshot already costs.
	viewMu     sync.Mutex
	view       *core.Sketch
	viewEpochs []uint64
	viewMerges int64
}

type shard struct {
	mu sync.Mutex
	// s is the shard's summary. Every access goes through mu, and every
	// mutating call bumps epoch inside the same locked region so the
	// epoch-cached merged view can never serve a stale snapshot as
	// fresh — the contract the epochlock analyzer enforces.
	//
	//freq:guardedBy(mu)
	//freq:epoch(epoch, Update UpdateBatch UpdateWeightedBatch UpdatePairs Clear)
	s *core.Sketch
	// epoch counts mutations to this shard. It is incremented (atomically,
	// under mu) by every write path and read without the lock by View's
	// freshness check, so a cached merged view can be reused for free while
	// no shard has changed.
	epoch atomic.Uint64
	// Pad the struct to a full 64-byte cache line (8 mutex + 8 pointer +
	// 8 epoch + 40) so neighbouring shard locks do not false-share.
	_ [40]byte
}

// New returns a sketch with the given total counter budget spread over
// numShards shards (rounded up to a power of two). Each shard receives
// maxCounters/numShards counters; an item's error band is its own
// shard's, bounded by the shard's share of the stream.
func New(maxCounters, numShards int) (*Sketch, error) {
	if numShards < 1 {
		return nil, fmt.Errorf("sharded: numShards %d must be positive", numShards)
	}
	n := NumShardsFor(numShards)
	perShard := maxCounters / n
	if perShard < core.MinCounters {
		return nil, fmt.Errorf("sharded: %d counters over %d shards leaves %d per shard (min %d)",
			maxCounters, n, perShard, core.MinCounters)
	}
	return NewWithOptions(n, core.Options{MaxCounters: perShard})
}

// NumShardsFor rounds a requested shard count up to the power of two the
// sketch actually uses.
func NumShardsFor(numShards int) int {
	n := 1
	for n < numShards {
		n <<= 1
	}
	return n
}

// NewWithOptions returns a sketch with numShards shards (rounded up to a
// power of two), each built from opts with a per-shard counter budget of
// opts.MaxCounters. When opts.Seed is nonzero, each shard derives its own
// distinct hash seed from it (and the shard-routing hash a third), so a
// pinned seed stays reproducible without correlating shard tables; a zero
// seed keeps the per-sketch random draw of the core package.
func NewWithOptions(numShards int, opts core.Options) (*Sketch, error) {
	if numShards < 1 {
		return nil, fmt.Errorf("sharded: numShards %d must be positive", numShards)
	}
	n := NumShardsFor(numShards)
	routeSeed := uint64(0x5a4d5bfe1c0ffee5)
	mergeSeed := uint64(0)
	if opts.Seed != 0 {
		routeSeed = xrand.Mix64(opts.Seed ^ 0xc0ffee5a4d5bfe1c)
		if mergeSeed = xrand.Mix64(opts.Seed ^ 0x51ed270b9f602a4d); mergeSeed == 0 {
			mergeSeed = 1
		}
	}
	sk := &Sketch{
		shards:    make([]shard, n),
		mask:      uint64(n - 1),
		seed:      routeSeed,
		mergeSeed: mergeSeed,
	}
	for i := range sk.shards {
		shardOpts := opts
		if opts.Seed != 0 {
			s := xrand.Mix64(opts.Seed + uint64(i)*0x9e3779b97f4a7c15)
			if s == 0 {
				s = 1
			}
			shardOpts.Seed = s
		}
		s, err := core.NewWithOptions(shardOpts)
		if err != nil {
			return nil, err
		}
		//freqvet:ignore epochlock constructor runs before the sketch is published; no reader can exist yet
		sk.shards[i].s = s
	}
	return sk, nil
}

// shardFor routes an item to its shard. The route hash is independent of
// the shards' table hashes (different mixing constant plus per-sketch
// seed), so shard assignment does not correlate with probe positions.
func (sk *Sketch) shardFor(item int64) *shard {
	return &sk.shards[xrand.Mix64(uint64(item)^sk.seed)&sk.mask]
}

// NumShards returns the shard count.
func (sk *Sketch) NumShards() int { return len(sk.shards) }

// ShardIndex returns the index of the shard item routes to, for callers
// that pre-partition batches (see UpdateShardPairs).
func (sk *Sketch) ShardIndex(item int64) int {
	return int(xrand.Mix64(uint64(item)^sk.seed) & sk.mask)
}

// Update processes a weighted update; safe for concurrent use.
func (sk *Sketch) Update(item int64, weight int64) error {
	sh := sk.shardFor(item)
	sh.mu.Lock()
	err := sh.s.Update(item, weight)
	sh.epoch.Add(1)
	sh.mu.Unlock()
	return err
}

// UpdateBatch processes a slice of unit-weight updates; safe for
// concurrent use. Items are partitioned by shard and each shard's slice
// is applied under a single lock acquisition.
func (sk *Sketch) UpdateBatch(items []int64) {
	_ = sk.updateBatch(items, nil)
}

// UpdateWeightedBatch processes the weighted updates (items[i],
// weights[i]); safe for concurrent use. Items are partitioned by shard
// and each shard's slice is applied under a single lock acquisition, so
// the per-update locking cost is amortized across the batch. Validation
// is all-or-nothing: mismatched lengths or a negative weight anywhere
// rejects the whole batch before any update is applied.
func (sk *Sketch) UpdateWeightedBatch(items, weights []int64) error {
	if len(items) != len(weights) {
		return fmt.Errorf("sharded: batch length mismatch: %d items, %d weights", len(items), len(weights))
	}
	return sk.updateBatch(items, weights)
}

// updateBatch partitions the batch by shard with a counting sort and
// applies each shard's run through the core batch path. A nil weights
// slice means all-unit weights. Sign validation is fused into the
// counting pass (no separate scan), still ahead of any lock or update,
// so a rejected batch applies nothing to any shard.
func (sk *Sketch) updateBatch(items, weights []int64) error {
	if len(items) == 0 {
		return nil
	}
	n := len(sk.shards)
	if n == 1 {
		sh := &sk.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.epoch.Add(1)
		if weights == nil {
			sh.s.UpdateBatch(items)
			return nil
		}
		return sh.s.UpdateWeightedBatch(items, weights)
	}
	idx := make([]int32, len(items))
	counts := make([]int, n)
	for i, item := range items {
		if weights != nil && weights[i] < 0 {
			return fmt.Errorf("sharded: negative weight %d in batch", weights[i])
		}
		j := sk.ShardIndex(item)
		idx[i] = int32(j)
		counts[j]++
	}
	// offsets[j] is where shard j's run starts in the reordered arrays.
	offsets := make([]int, n+1)
	for j := 0; j < n; j++ {
		offsets[j+1] = offsets[j] + counts[j]
	}
	next := append([]int(nil), offsets[:n]...)
	pItems := make([]int64, len(items))
	var pWeights []int64
	if weights != nil {
		pWeights = make([]int64, len(items))
	}
	for i, item := range items {
		p := next[idx[i]]
		next[idx[i]]++
		pItems[p] = item
		if weights != nil {
			pWeights[p] = weights[i]
		}
	}
	for j := 0; j < n; j++ {
		lo, hi := offsets[j], offsets[j+1]
		if lo == hi {
			continue
		}
		sh := &sk.shards[j]
		sh.mu.Lock()
		sh.epoch.Add(1)
		if weights == nil {
			sh.s.UpdateBatch(pItems[lo:hi])
		} else {
			// Weights were validated above; the per-shard call cannot fail.
			_ = sh.s.UpdateWeightedBatch(pItems[lo:hi], pWeights[lo:hi])
		}
		sh.mu.Unlock()
	}
	return nil
}

// UpdateShardPairs applies a pre-partitioned batch of (item, weight)
// pairs to shard idx under a single lock acquisition — the flush path of
// a per-goroutine buffered writer, which groups updates with ShardIndex
// and hands its row-layout buffer over without re-marshaling. Every
// pair's Key must route to idx, or point queries for misrouted items
// will consult the wrong shard. Weights must be non-negative; the core
// batch call validates them and applies nothing on failure.
func (sk *Sketch) UpdateShardPairs(idx int, pairs []hashmap.Pair) error {
	if idx < 0 || idx >= len(sk.shards) {
		return fmt.Errorf("sharded: shard index %d outside [0, %d)", idx, len(sk.shards))
	}
	sh := &sk.shards[idx]
	sh.mu.Lock()
	sh.epoch.Add(1)
	err := sh.s.UpdatePairs(pairs)
	sh.mu.Unlock()
	return err
}

// Estimate returns the point estimate for item; safe for concurrent use.
func (sk *Sketch) Estimate(item int64) int64 {
	sh := sk.shardFor(item)
	sh.mu.Lock()
	v := sh.s.Estimate(item)
	sh.mu.Unlock()
	return v
}

// LowerBound returns a certain lower bound on item's frequency.
func (sk *Sketch) LowerBound(item int64) int64 {
	sh := sk.shardFor(item)
	sh.mu.Lock()
	v := sh.s.LowerBound(item)
	sh.mu.Unlock()
	return v
}

// UpperBound returns a certain upper bound on item's frequency.
func (sk *Sketch) UpperBound(item int64) int64 {
	sh := sk.shardFor(item)
	sh.mu.Lock()
	v := sh.s.UpperBound(item)
	sh.mu.Unlock()
	return v
}

// StreamWeight returns N summed over shards. It is a consistent total
// only when no updates race the call; under concurrency it is a lower
// bound on the weight of all updates that started before it returned.
func (sk *Sketch) StreamWeight() int64 {
	var n int64
	for i := range sk.shards {
		sh := &sk.shards[i]
		sh.mu.Lock()
		n += sh.s.StreamWeight()
		sh.mu.Unlock()
	}
	return n
}

// MaximumError returns the largest per-shard error band; every estimate
// is within its own shard's (smaller or equal) band.
func (sk *Sketch) MaximumError() int64 {
	var worst int64
	for i := range sk.shards {
		sh := &sk.shards[i]
		sh.mu.Lock()
		if e := sh.s.MaximumError(); e > worst {
			worst = e
		}
		sh.mu.Unlock()
	}
	return worst
}

// maxMergeWorkers bounds the fan-in parallelism of the view/snapshot
// merge kernel; beyond a handful of workers the serial combine step and
// memory bandwidth dominate.
const maxMergeWorkers = 8

// mergeWorkers picks the bounded worker count for a shard merge.
func (sk *Sketch) mergeWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > len(sk.shards) {
		w = len(sk.shards)
	}
	if w > maxMergeWorkers {
		w = maxMergeWorkers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// mergeOptions carries the shards' shared configuration over to a merged
// summary with the given counter budget (a zero quantile is the getters'
// SMIN convention, which Options spells QuantileMin). Growth stays
// enabled: MergeDisjoint pre-grows to the actual counter count in one
// step per merge, so a sparse sketch gets a small merged table instead
// of one sized for the full configured budget. Under a pinned seed the
// merged sketch's own hash seed is derived deterministically (distinct
// per salt, so worker partials and the combined output never share a
// hash function); unpinned sketches keep the random per-sketch draw.
func (sk *Sketch) mergeOptions(budget int, salt uint64) core.Options {
	//freqvet:ignore epochlock Quantile is construction-time config, immutable after New
	q := sk.shards[0].s.Quantile()
	if q == 0 {
		q = core.QuantileMin
	}
	seed := uint64(0)
	if sk.mergeSeed != 0 {
		if seed = xrand.Mix64(sk.mergeSeed + (salt+1)*0x9e3779b97f4a7c15); seed == 0 {
			seed = 1
		}
	}
	return core.Options{
		MaxCounters: budget,
		Quantile:    q,
		//freqvet:ignore epochlock SampleSize is construction-time config, immutable after New
		SampleSize: sk.shards[0].s.SampleSize(),
		Seed:       seed,
	}
}

// buildMerged merges every shard into one core sketch — the merge
// kernel shared by Snapshot and View. Items are hash-partitioned,
// so shard key sets are disjoint and every counter rides the
// found-check-free MergeDisjoint fast path; the combined budget admits
// all counters, so no decrement fires and the result is exact over the
// shards' states. With more than one worker the shards are folded into
// per-worker partial summaries concurrently (bounded fan-in, each shard
// locked only while it is being read) and the disjoint partials combined
// serially at the end. When epochs is non-nil, each shard's epoch is
// captured under the same lock hold as its merge, preserving the View
// cache-freshness contract.
func (sk *Sketch) buildMerged(epochs []uint64) (*core.Sketch, error) {
	total := 0
	for i := range sk.shards {
		//freqvet:ignore epochlock MaxCounters is construction-time config, immutable after New
		total += sk.shards[i].s.MaxCounters()
	}
	out, err := core.NewWithOptions(sk.mergeOptions(total, 0))
	if err != nil {
		return nil, err
	}
	workers := sk.mergeWorkers()
	if workers <= 1 {
		for i := range sk.shards {
			sh := &sk.shards[i]
			sh.mu.Lock()
			if epochs != nil {
				epochs[i] = sh.epoch.Load()
			}
			out.MergeDisjoint(sh.s)
			sh.mu.Unlock()
		}
		return out, nil
	}
	partials := make([]*core.Sketch, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			budget := 0
			for i := w; i < len(sk.shards); i += workers {
				//freqvet:ignore epochlock MaxCounters is construction-time config, immutable after New
				budget += sk.shards[i].s.MaxCounters()
			}
			p, err := core.NewWithOptions(sk.mergeOptions(budget, uint64(w)+1))
			if err != nil {
				errs[w] = err
				return
			}
			for i := w; i < len(sk.shards); i += workers {
				sh := &sk.shards[i]
				sh.mu.Lock()
				if epochs != nil {
					epochs[i] = sh.epoch.Load()
				}
				p.MergeDisjoint(sh.s)
				sh.mu.Unlock()
			}
			partials[w] = p
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, p := range partials {
		out.MergeDisjoint(p)
	}
	return out, nil
}

// Snapshot merges all shards into a single fresh core sketch with the
// combined counter budget and the shards' decrement policy and sample
// size, via Algorithm 5 (the parallel disjoint bulk kernel of
// buildMerged). The result is independent of the sharded sketch and safe
// to serialize or merge further. Shards are locked one at a time, so a
// snapshot taken under concurrent updates reflects each shard at a
// (possibly different) consistent point.
func (sk *Sketch) Snapshot() (*core.Sketch, error) {
	return sk.buildMerged(nil)
}

// AppendLargest appends each shard's min(n, NumActive) largest counters
// to dst as (item, counter) pairs, in unspecified order, and returns the
// extended slice with two facts about it. offset is the sum of the
// shards' MaximumError, the offset of the merged view. cut is the
// largest counter an unlisted item may hold: the smallest listed counter
// of each shard that held more than n counters, the largest of these, or
// -1 when every shard listed all of its counters. Each shard is read
// under its own lock, its counters and offset together, so the lists
// describe each shard at a (possibly different) consistent point, like
// View. Because items are hash-partitioned, the view's row for a listed
// item is (c+offset, c, c+offset).
func (sk *Sketch) AppendLargest(dst []hashmap.Pair, n int) (pairs []hashmap.Pair, offset, cut int64) {
	cut = -1
	for i := range sk.shards {
		sh := &sk.shards[i]
		sh.mu.Lock()
		base := len(dst)
		dst = sh.s.AppendLargest(dst, n)
		offset += sh.s.MaximumError()
		if sh.s.NumActive() > n {
			least := int64(math.MaxInt64)
			for _, p := range dst[base:] {
				least = min(least, p.Value)
			}
			cut = max(cut, least)
		}
		sh.mu.Unlock()
	}
	return dst, offset, cut
}

// estScratch is the pooled partition scratch of EstimateBatch, so the
// batch read path stays allocation-free in the steady state like the
// rest of the bulk engine.
type estScratch struct {
	idx     []int32
	offsets []int
	pItems  []int64
	pVals   []int64
	pos     []int32
}

var estPool sync.Pool

// maxEstScratchItems caps the batch size whose scratch is retained in
// estPool between calls (~24 bytes per item across the four slices).
const maxEstScratchItems = 1 << 20

func getEstScratch(items, shards int) *estScratch {
	s, _ := estPool.Get().(*estScratch)
	if s == nil {
		s = new(estScratch)
	}
	if cap(s.idx) < items {
		s.idx = make([]int32, items)
		s.pItems = make([]int64, items)
		s.pVals = make([]int64, items)
		s.pos = make([]int32, items)
	}
	s.idx = s.idx[:items]
	s.pItems = s.pItems[:items]
	s.pVals = s.pVals[:items]
	s.pos = s.pos[:items]
	if cap(s.offsets) < shards+1 {
		s.offsets = make([]int, shards+1)
	}
	s.offsets = s.offsets[:shards+1]
	return s
}

// EstimateBatch returns the point estimates for every item, writing them
// to dst (reallocated only when too small) and returning it; safe for
// concurrent use. The batch is partitioned by shard with the same
// counting sort as the write path, each shard is queried under a single
// lock acquisition through the pipelined batch-lookup kernel, and the
// results are scattered back to the input order. Like the scalar point
// queries, each estimate reflects its own shard at a consistent point
// and carries that shard's error band.
func (sk *Sketch) EstimateBatch(items []int64, dst []int64) []int64 {
	if cap(dst) < len(items) {
		dst = make([]int64, len(items))
	} else {
		dst = dst[:len(items)]
	}
	if len(items) == 0 {
		return dst
	}
	n := len(sk.shards)
	if n == 1 {
		sh := &sk.shards[0]
		sh.mu.Lock()
		sh.s.EstimateBatch(items, dst)
		sh.mu.Unlock()
		return dst
	}
	sc := getEstScratch(len(items), n)
	counts := sc.offsets[1:] // counting pass writes counts at offset j+1
	clear(counts)
	for i, item := range items {
		j := sk.ShardIndex(item)
		sc.idx[i] = int32(j)
		counts[j]++
	}
	// Prefix-sum in place: offsets[j] becomes the start of shard j's run,
	// and the placement pass below advances it to the end — which is the
	// next shard's start, exactly what the query pass needs.
	sc.offsets[0] = 0
	for j := 1; j < n; j++ {
		sc.offsets[j] += sc.offsets[j-1]
	}
	for i, item := range items {
		j := sc.idx[i]
		p := sc.offsets[j]
		sc.offsets[j]++
		sc.pItems[p] = item
		sc.pos[p] = int32(i)
	}
	lo := 0
	for j := 0; j < n; j++ {
		hi := sc.offsets[j] // advanced to the end of shard j's run
		if lo == hi {
			lo = hi
			continue
		}
		sh := &sk.shards[j]
		sh.mu.Lock()
		sh.s.EstimateBatch(sc.pItems[lo:hi], sc.pVals[lo:hi])
		sh.mu.Unlock()
		lo = hi
	}
	for p, i := range sc.pos {
		dst[i] = sc.pVals[p]
	}
	// Retention cap, like the core pools: one enormous batch must not pin
	// its scratch (~24 bytes/item) in the process-wide pool forever.
	if cap(sc.idx) <= maxEstScratchItems {
		estPool.Put(sc)
	}
	return dst
}

// Reset clears every shard in place through the slot-recycling Clear:
// counters and accounting drop to zero while each shard's table
// allocation (including growth) is retained, so a reset allocates
// nothing and the next write burst skips the ramp-up rehashes. Memory
// therefore stays at the high-water mark rather than shrinking to the
// initial table.
func (sk *Sketch) Reset() {
	for i := range sk.shards {
		sh := &sk.shards[i]
		sh.mu.Lock()
		sh.epoch.Add(1)
		sh.s.Clear()
		sh.mu.Unlock()
	}
}

// View returns the epoch-cached merged read view: a single core sketch
// summarizing all shards (Algorithm 5), rebuilt only when some shard has
// been written since the last call and returned as-is otherwise — so a
// read-heavy workload pays the merge once per write burst instead of
// once per query. Rebuilds run the parallel disjoint bulk kernel of
// buildMerged: shards are folded into per-worker partials concurrently
// (each shard's epoch captured under the same lock hold as its merge, so
// it describes exactly the state folded into the view; a write landing
// after the unlock bumps the epoch and invalidates the cache) and
// combined at the end. The returned sketch must be treated as immutable:
// it is shared by every caller until the next rebuild, and its read-only
// methods are safe for concurrent use. A view taken under concurrent
// updates reflects each shard at a (possibly different) consistent
// point, exactly like Snapshot.
//
// Unlike the per-shard union of FrequentItemsAboveThreshold, rows
// extracted from the view carry the merged summary's global error band —
// the same answer a coordinator holding the shipped-and-merged snapshot
// would give.
func (sk *Sketch) View() (*core.Sketch, error) {
	sk.viewMu.Lock()
	defer sk.viewMu.Unlock()
	if sk.view != nil && sk.viewFresh() {
		return sk.view, nil
	}
	if sk.viewEpochs == nil {
		sk.viewEpochs = make([]uint64, len(sk.shards))
	}
	out, err := sk.buildMerged(sk.viewEpochs)
	if err != nil {
		return nil, err
	}
	sk.viewMerges += int64(len(sk.shards))
	sk.view = out
	return out, nil
}

// viewFresh reports whether no shard has been written since the cached
// view was built. Caller holds viewMu.
//
//freq:locked(viewMu)
func (sk *Sketch) viewFresh() bool {
	for i := range sk.shards {
		if sk.shards[i].epoch.Load() != sk.viewEpochs[i] {
			return false
		}
	}
	return true
}

// ViewMerges returns the cumulative number of per-shard merge operations
// performed building read views — a diagnostic for asserting that
// repeated reads with no interleaved writes reuse the cache (the count
// stays flat) rather than re-merging every shard per call.
func (sk *Sketch) ViewMerges() int64 {
	sk.viewMu.Lock()
	defer sk.viewMu.Unlock()
	return sk.viewMerges
}
