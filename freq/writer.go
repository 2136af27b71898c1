package freq

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/hashmap"
	"repro/internal/sharded"
)

// Writer is a per-goroutine buffered front-end for a Concurrent sketch —
// the batched ingestion hot path. Add accumulates (item, weight) pairs
// into per-shard buffers without touching any lock; once BatchSize pairs
// are buffered (or on an explicit Flush) each shard's slice is applied
// under a single lock acquisition through the bulk-update path. Compared
// to calling Concurrent.Update per item, a writer replaces one
// lock/unlock plus one facade round trip per update with one per
// shard per batch.
//
// A Writer is NOT safe for concurrent use: open one per ingest goroutine
// (they are cheap) and share the underlying Concurrent sketch, which is
// the synchronization point. Updates become visible to readers only when
// flushed; Close flushes the remainder, so the pattern is
//
//	w, _ := freq.NewWriter(c)
//	defer w.Close()
//	for item, weight := range source {
//		w.Add(item, weight)
//	}
//
// Queries on the Concurrent sketch between flushes simply miss the
// not-yet-flushed tail of the stream — the same semantics as a reader
// racing an unbuffered writer by a few microseconds.
type Writer[T comparable] struct {
	c *Concurrent[T]
	// ints and route mirror c's so the Add hot path resolves an 8-byte
	// item's shard without a second pointer chase or method call.
	ints      bool
	route     sharded.Route
	batchSize int
	buffered  int
	shards    []writerShard[T]
	closed    bool
}

// pair is one pending update. Item and weight share a cache line, so the
// Add hot path touches one line per update. For 8-byte integer items its
// layout is exactly hashmap.Pair (an 8-byte item followed by an int64),
// letting a flush hand the buffer to the parallel-array backend without
// re-marshaling.
type pair[T comparable] struct {
	item   T
	weight int64
}

// Pair is one (item, weight) update in the row layout the bulk paths
// share with the wire protocol's binary ingest frames: the item followed
// by its int64 weight, side by side. For 8-byte integer item types this
// is exactly the 16-byte little-endian block a binary wire frame
// carries, so a received frame reinterprets as a []Pair[int64] and feeds
// Writer.AddPairs without any per-pair decoding.
type Pair[T comparable] struct {
	Item   T
	Weight int64
}

// asPairSlice reinterprets a whole []pair[T], capacity included, as
// []hashmap.Pair without copying, and fromPairSlice reverses it, so a
// kernel may append into a caller's buffer. Called only on the fast
// path, where T is an 8-byte integer kind, so the layouts match exactly.
//
//freq:noalloc
func asPairSlice[T comparable](pairs []pair[T]) []hashmap.Pair {
	if cap(pairs) == 0 {
		return nil
	}
	return unsafe.Slice((*hashmap.Pair)(unsafe.Pointer(unsafe.SliceData(pairs))), cap(pairs))[:len(pairs)]
}

//freq:noalloc
func fromPairSlice[T comparable](pairs []hashmap.Pair) []pair[T] {
	if cap(pairs) == 0 {
		return nil
	}
	return unsafe.Slice((*pair[T])(unsafe.Pointer(unsafe.SliceData(pairs))), cap(pairs))[:len(pairs)]
}

// writerShard is one shard's pending pairs. The buffer is pre-sized to
// twice its fair share of the batch, so the Add hot path is one store
// and a counter bump — no append header rewrite, no growth check — and
// a heavily skewed shard that fills early just flushes itself rather
// than growing (total memory stays ~2x the batch size instead of
// shards x batch size).
type writerShard[T comparable] struct {
	pairs []pair[T]
	n     int
}

// NewWriter returns a buffered writer feeding c. WithBatchSize sets the
// auto-flush threshold (default DefaultBatchSize); all other options are
// accepted and ignored, as they configure sketch construction.
func NewWriter[T comparable](c *Concurrent[T], opts ...Option) (*Writer[T], error) {
	cfg := config{batchSize: DefaultBatchSize}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	n := c.NumShards()
	perShard := max(64, 2*cfg.batchSize/n)
	w := &Writer[T]{
		c:         c,
		ints:      c.ints,
		route:     c.route,
		batchSize: cfg.batchSize,
		shards:    make([]writerShard[T], n),
	}
	for i := range w.shards {
		w.shards[i].pairs = make([]pair[T], perShard)
	}
	return w, nil
}

// Add buffers a weighted update, flushing automatically when the buffer
// reaches BatchSize. Zero weights are no-ops; negative weights return
// ErrNegativeWeight, adds after Close return ErrWriterClosed.
//
//freq:noalloc
func (w *Writer[T]) Add(item T, weight int64) error {
	if weight <= 0 || w.closed {
		if w.closed {
			return ErrWriterClosed
		}
		if weight < 0 {
			return ErrNegativeWeight
		}
		return nil
	}
	// The 8-byte route inlines (hash, mask); the maphash route cannot and
	// stays behind a call.
	var j int
	if w.ints {
		j = w.route.ShardIndex(asInt64(item))
	} else {
		j = w.c.hashIndex(item)
	}
	sh := &w.shards[j]
	if sh.n == len(sh.pairs) {
		// Rare: a skewed shard filled its share early; flush just it.
		if err := w.flushShard(j); err != nil {
			return err
		}
	}
	sh.pairs[sh.n] = pair[T]{item, weight}
	sh.n++
	w.buffered++
	if w.buffered >= w.batchSize {
		return w.Flush()
	}
	return nil
}

// AddPairs buffers a whole batch of weighted updates — the frame-decode
// hot path of the binary wire protocol, where a received pair block is
// partitioned into the per-shard buffers in one pass. Validation is
// all-or-nothing and happens before anything is buffered: a negative
// weight anywhere rejects the entire batch with ErrNegativeWeight
// (wrapped in the same message the facade's batch paths return) and
// buffers none of it. Zero-weight pairs are skipped as no-ops. Shards
// that fill mid-batch flush themselves, and the writer flushes as usual
// once BatchSize pairs are pending, so callers may hand over slices that
// alias transient network buffers: every pair is copied out before
// AddPairs returns.
//
//freq:noalloc
func (w *Writer[T]) AddPairs(pairs []Pair[T]) error {
	if w.closed {
		return ErrWriterClosed
	}
	for i := range pairs {
		if pairs[i].Weight < 0 {
			// Cold: only a rejected batch formats its message.
			return negativeWeight(pairs[i].Weight)
		}
	}
	for i := range pairs {
		p := pairs[i]
		if p.Weight == 0 {
			continue
		}
		var j int
		if w.ints {
			j = w.route.ShardIndex(asInt64(p.Item))
		} else {
			j = w.c.hashIndex(p.Item)
		}
		sh := &w.shards[j]
		if sh.n == len(sh.pairs) {
			if err := w.flushShard(j); err != nil {
				return err
			}
		}
		sh.pairs[sh.n] = pair[T]{p.Item, p.Weight}
		sh.n++
		w.buffered++
	}
	if w.buffered >= w.batchSize {
		return w.Flush()
	}
	return nil
}

// AddOne buffers a unit-weight occurrence of item.
func (w *Writer[T]) AddOne(item T) error { return w.Add(item, 1) }

// Flush applies every buffered pair to the sketch, one lock acquisition
// per shard with pending updates, and empties the buffer. Buffers are
// retained, so a steady-state writer allocates nothing.
//
// Flush attempts every shard even when one fails: a shard's error never
// leaves later shards silently buffered. The returned error joins every
// failed shard's error (errors.Join — match individual causes with
// errors.Is/As), and exactly the failed shards keep their buffers
// intact, so a caller may repair the cause and Flush again to retry
// only what was not applied; Buffered reports what is still pending.
func (w *Writer[T]) Flush() error {
	if w.buffered == 0 {
		return nil
	}
	var errs []error
	for j := range w.shards {
		if err := w.flushShard(j); err != nil {
			errs = append(errs, fmt.Errorf("freq: flush shard %d: %w", j, err))
		}
	}
	return errors.Join(errs...)
}

// flushShard applies one shard's pending pairs under a single lock
// acquisition.
//
//freq:noalloc
func (w *Writer[T]) flushShard(j int) error {
	sh := &w.shards[j]
	if sh.n == 0 {
		return nil
	}
	csh := &w.c.shards[j]
	csh.mu.Lock()
	csh.epoch.Add(1)
	err := csh.s.updatePairs(sh.pairs[:sh.n])
	csh.mu.Unlock()
	if err != nil {
		return err
	}
	w.buffered -= sh.n
	sh.n = 0
	return nil
}

// Close flushes the remaining buffer and marks the writer closed;
// further Adds fail with ErrWriterClosed. Close is idempotent.
func (w *Writer[T]) Close() error {
	if w.closed {
		return nil
	}
	err := w.Flush()
	w.closed = true
	return err
}

// Buffered returns the number of pairs waiting to be flushed.
func (w *Writer[T]) Buffered() int { return w.buffered }

// BatchSize returns the auto-flush threshold.
func (w *Writer[T]) BatchSize() int { return w.batchSize }
