package freq

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"iter"
	"sync"
	"time"

	"repro/internal/qselect"
)

// ConcurrentWindowed is the sliding-window heavy-hitters summary: a ring
// of per-interval sketches answering "which items carried the most
// weight over the last N intervals?" — the first question a traffic
// monitor asks. Writes land in the head interval through the batched
// hot path; Rotate retires the oldest interval and recycles its sketch
// in place as the new head, so a warm ring rotates without allocating.
//
//	cw, _ := freq.NewConcurrentWindowed[uint64](4096, 60) // 60 intervals of 4096 counters
//	stop := cw.StartRotating(time.Second)                 // or call Rotate at each boundary
//	defer stop()
//	cw.Update(srcIP, packetBytes)
//	top := cw.Query().Limit(10).Collect() // over the whole window
//	recent := cw.TopKLast(5, 10)          // over the last 5 intervals
//
// One mutex guards the ring: any number of writers and readers and one
// rotation driver may share it, every method answers under one hold of
// the lock, and what it returns is safe to keep. All, and so a Query,
// holds the lock for the whole scan: do not write to the window from
// inside the loop.
//
// Reads over the full window (the Queryable methods) or its last w
// intervals (the Last methods) answer as the merged view of the covered
// intervals (Algorithm 5), whose error band is the sum of theirs
// (Theorem 5): while every interval stays within its budget the view
// adds no error, and a width-1 view reproduces its interval's sketch
// exactly. Point reads sum one lookup per interval, TopKLast merges only
// when it cannot certify its rows from each interval's largest
// counters, and the other reads share one cached merged view.
type ConcurrentWindowed[T comparable] struct {
	mu sync.Mutex

	// slots is the ring; slots[head] is the current interval. k is the
	// per-interval counter budget (as constructed or decoded).
	slots     []*Sketch[T] //freq:guardedBy(mu)
	head      int          //freq:guardedBy(mu)
	k         int          //freq:guardedBy(mu)
	rotations int64        //freq:guardedBy(mu)

	// view is the reusable merged read sketch behind the full-window
	// reads and the merged Last reads (budget = sum of the slots'
	// MaxCounters, so window merges never evict), cleared in place and
	// rebuilt when a read needs a width the cache doesn't hold.
	// viewWidth is the width it holds, 0 once a write or rotation has
	// landed since it was built; viewMerges counts the slot merges its
	// rebuilds performed.
	view       *Sketch[T] //freq:guardedBy(mu)
	viewWidth  int        //freq:guardedBy(mu)
	viewMerges int64      //freq:guardedBy(mu)

	// topK's scratch, reused across reads: each slot's largest
	// counters, what the lists say about each listed item, the listed
	// lower bounds θ is selected from, and the rows that may rank.
	tops  []slotTop[T] //freq:guardedBy(mu)
	lists map[T]listed //freq:guardedBy(mu)
	lbs   []int64      //freq:guardedBy(mu)
	cands []Row[T]     //freq:guardedBy(mu)

	// sink, when set, receives each retiring head slot at rotation —
	// the durable-store hook: the slot's contents are persisted before
	// the ring recycles its table. headStart is the wall-clock start of
	// the current head interval; sinkErr records the most recent sink
	// failure (rotation never blocks on a failing sink).
	sink      RotationSink[T] //freq:guardedBy(mu)
	headStart time.Time       //freq:guardedBy(mu)
	sinkErr   error           //freq:guardedBy(mu)

	serde SerDe[T] //freq:guardedBy(mu)
}

// RotationSink receives retired window intervals at rotation, before
// their sketches are recycled as the new head — the hand-off between
// the in-memory ring and a durable history (freq/store's Store
// implements it). The view aliases the live slot and is valid only for
// the duration of the call; implementations that keep the data must
// serialize it (View.AppendBinary) before returning. The window calls
// it with its lock held, so it must not call back into the window.
// Returning an error never aborts the rotation; the window records it
// (SinkErr).
type RotationSink[T comparable] interface {
	AppendSlot(v *View[T], start, end time.Time) error
}

// NewConcurrentWindowed returns a sliding window of `intervals` ring
// slots, each a sketch with counter budget k configured by opts (the
// usual construction options apply per interval). The window covers
// the current interval plus the intervals-1 before it; the caller
// drives interval boundaries with Rotate, RotateAt or StartRotating. A
// pinned seed (WithSeed) is varied per slot so the intervals' probe
// behaviour never correlates; the merged view is pre-built here, so
// rotation and steady-state re-merges allocate nothing.
func NewConcurrentWindowed[T comparable](k, intervals int, opts ...Option) (*ConcurrentWindowed[T], error) {
	if intervals < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadIntervals, intervals)
	}
	cfg, err := resolve(k, opts)
	if err != nil {
		return nil, err
	}
	slots := make([]*Sketch[T], intervals)
	for i := range slots {
		slotCfg := cfg
		if cfg.seed != 0 {
			slotCfg.seed = deriveSeed(cfg.seed, uint64(i)+1)
		}
		if slots[i], err = newFromConfig[T](slotCfg); err != nil {
			return nil, err
		}
	}
	viewCfg := cfg
	viewCfg.k = viewBudget(slots)
	if cfg.seed != 0 {
		viewCfg.seed = deriveSeed(cfg.seed, uint64(intervals)+1)
	}
	view, err := newFromConfig[T](viewCfg)
	if err != nil {
		return nil, err
	}
	return &ConcurrentWindowed[T]{
		slots: slots, k: cfg.k, view: view,
		tops: make([]slotTop[T], intervals), lists: make(map[T]listed),
	}, nil
}

// viewBudget is the merged view's counter budget: the sum of the slot
// budgets (MaxCounters, which the fast path rounds up from k), so a
// merge of every slot never decrements and the view's counter for an
// item is the sum of its slot counters.
func viewBudget[T comparable](slots []*Sketch[T]) int {
	k := 0
	for _, s := range slots {
		k += s.MaxCounters()
	}
	return k
}

// deriveSeed decorrelates a pinned seed across ring slots (SplitMix64
// finalizer over seed + i·golden ratio): deterministic for
// reproducibility, never zero (zero would re-randomize downstream), and
// distinct per slot.
func deriveSeed(seed, i uint64) uint64 {
	x := seed + i*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	return x
}

// SetSerDe installs the item codec used when marshaling a ring over a
// type without a built-in codec, and returns c for chaining.
func (c *ConcurrentWindowed[T]) SetSerDe(sd SerDe[T]) *ConcurrentWindowed[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.serde = sd
	for _, s := range c.slots {
		s.SetSerDe(sd)
	}
	c.view.SetSerDe(sd)
	return c
}

// Intervals returns the ring size N: the number of intervals the window
// covers, including the current one.
func (c *ConcurrentWindowed[T]) Intervals() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// IntervalCounters returns the per-interval counter budget k.
func (c *ConcurrentWindowed[T]) IntervalCounters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.k
}

// Rotations returns how many times the window has advanced.
func (c *ConcurrentWindowed[T]) Rotations() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rotations
}

// width clamps a read's interval count to [1, N].
//
//freq:locked(mu)
func (c *ConcurrentWindowed[T]) width(w int) int { return min(max(w, 1), len(c.slots)) }

// recent returns the i-th newest interval's sketch; 0 is the head.
//
//freq:locked(mu)
func (c *ConcurrentWindowed[T]) recent(i int) *Sketch[T] {
	n := len(c.slots)
	return c.slots[(c.head-i+n)%n]
}

// write returns the head slot for a write, dropping the merged-view
// cache the write makes stale.
//
//freq:locked(mu)
func (c *ConcurrentWindowed[T]) write() *Sketch[T] {
	c.viewWidth = 0
	return c.slots[c.head]
}

// Rotate advances the window one interval: the oldest interval falls
// out of scope and its sketch is recycled in place as the new (empty)
// head — O(table) state clearing, no allocation once the ring is warm.
// Callers define what an interval is by when they call Rotate (a
// wall-clock ticker, a record count, a file boundary). With a rotation
// sink installed, Rotate stamps the boundary with time.Now(); use
// RotateAt to supply the boundary time explicitly (the aligned driver
// and deterministic tests do).
func (c *ConcurrentWindowed[T]) Rotate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	var end time.Time
	if c.sink != nil {
		end = time.Now()
	}
	c.rotate(end)
}

// RotateAt is Rotate with an explicit interval-boundary timestamp: the
// interval that just ended covers [start, end), where start was the
// previous boundary (or the headStart given to SetRotationSink). When a
// rotation sink is installed and the finished interval is non-empty,
// the slot is handed to the sink before the ring advances — so the
// just-completed interval is durable the moment the window moves on,
// and a crash loses at most the current partial interval. A sink error
// is recorded (SinkErr) and the rotation proceeds regardless: the
// window's liveness never depends on the sink's health.
func (c *ConcurrentWindowed[T]) RotateAt(end time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rotate(end)
}

// rotate hands the finished head to the sink, if one is installed, and
// advances the ring: the oldest slot is cleared in place as the new
// head, and its cached list and the merged view go stale.
//
//freq:locked(mu)
func (c *ConcurrentWindowed[T]) rotate(end time.Time) {
	if c.sink != nil {
		if h := c.slots[c.head]; !h.IsEmpty() {
			if err := c.sink.AppendSlot(&View[T]{sk: h}, c.headStart, end); err != nil {
				c.sinkErr = err
			}
		}
		c.headStart = end
	}
	c.head = (c.head + 1) % len(c.slots)
	c.slots[c.head].clearInPlace()
	c.tops[c.head].m = 0
	c.rotations++
	c.viewWidth = 0
}

// SetRotationSink installs (or with nil removes) the rotation sink and
// marks headStart as the wall-clock start of the current head interval,
// then returns c for chaining. Install the sink before the first write
// of the interval it should cover; slots already rotated out are gone.
func (c *ConcurrentWindowed[T]) SetRotationSink(sink RotationSink[T], headStart time.Time) *ConcurrentWindowed[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink, c.headStart = sink, headStart
	return c
}

// SinkErr returns the most recent rotation-sink failure, or nil. Sink
// errors never abort rotations; this is where they surface.
func (c *ConcurrentWindowed[T]) SinkErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sinkErr
}

// Reset empties every interval of the window in place (the same
// alloc-free slot recycling as rotation) and rewinds the rotation
// count, returning the ring to its freshly constructed state.
func (c *ConcurrentWindowed[T]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.slots {
		s.clearInPlace()
	}
	for i := range c.tops {
		c.tops[i].m = 0
	}
	c.head, c.rotations, c.viewWidth = 0, 0, 0
}

// StartRotating attaches a wall-clock rotation driver: a background
// timer rotates the window (as RotateAt) at every interval boundary
// until the returned stop function is called. stop is idempotent and
// synchronous — it blocks until the driver has exited, so once it
// returns no further rotation (and no further rotation-sink append)
// will occur. With it, a 60-interval window rotated every second is a
// rolling top-k over the last minute:
//
//	cw, _ := freq.NewConcurrentWindowed[uint64](4096, 60)
//	stop := cw.StartRotating(time.Second)
//	defer stop()
//
// Rotations are aligned to wall-clock multiples of interval (the first
// fires at the next boundary after now, not one interval after process
// start), and each boundary is re-derived from the schedule rather
// than a free-running ticker — so interval boundaries, and with a
// rotation sink the persisted partitions' time bounds, are stable and
// reproducible across restarts. If the process stalls past one or more
// boundaries (a laptop sleep, a long GC pause), the driver catches up
// with one rotation per missed boundary, which is exactly the empty
// intervals wall-clock time says the window should contain.
func (c *ConcurrentWindowed[T]) StartRotating(interval time.Duration) (stop func()) {
	if interval <= 0 {
		panic("freq: non-positive rotation interval")
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		next := nextBoundary(time.Now(), interval)
		timer := time.NewTimer(time.Until(next))
		defer timer.Stop()
		for {
			select {
			case <-timer.C:
				select {
				case <-done:
					return
				default:
				}
				c.mu.Lock()
				c.rotate(next)
				c.mu.Unlock()
				next = next.Add(interval)
				timer.Reset(time.Until(next))
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-exited
		})
	}
}

// nextBoundary returns the first wall-clock multiple of interval
// strictly after now — the alignment rule of StartRotating. Boundaries
// are multiples of interval since the Unix epoch (time.Truncate), so
// two processes rotating at the same interval produce identical
// partition bounds no matter when each started.
func nextBoundary(now time.Time, interval time.Duration) time.Time {
	b := now.Truncate(interval)
	if !b.After(now) {
		b = b.Add(interval)
	}
	return b
}

// Update adds weight to item's frequency in the current interval. Zero
// weights are no-ops; negative weights return ErrNegativeWeight.
func (c *ConcurrentWindowed[T]) Update(item T, weight int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.write().Update(item, weight)
}

// UpdateOne adds a unit-weight occurrence of item to the current
// interval.
func (c *ConcurrentWindowed[T]) UpdateOne(item T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.write().UpdateOne(item)
}

// UpdateBatch adds a unit-weight occurrence of every item to the
// current interval through the batched hot path, under one lock
// acquisition.
func (c *ConcurrentWindowed[T]) UpdateBatch(items []T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.write().UpdateBatch(items)
}

// UpdateWeightedBatch adds weights[i] to items[i]'s frequency in the
// current interval under one lock acquisition — the batched ingest
// path, with the facade's all-or-nothing validation
// (ErrLengthMismatch, ErrNegativeWeight).
func (c *ConcurrentWindowed[T]) UpdateWeightedBatch(items []T, weights []int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.write().UpdateWeightedBatch(items, weights)
}

// merged returns the cached merged sketch over the last w intervals
// (clamped to [1, N]), rebuilding it only when the cache holds a
// different width or a write or rotation landed since it was built. A
// rebuild clears the reusable view sketch in place and folds the
// covered slots in newest-first via the bulk merge kernels; the view's
// combined budget admits every covered counter, so the merge itself
// never evicts: an item's counter is the sum L of its slot counters,
// and the offset O the sum of the slot offsets (Theorem 5).
//
//freq:locked(mu)
func (c *ConcurrentWindowed[T]) merged(w int) *Sketch[T] {
	w = c.width(w)
	if c.viewWidth == w {
		return c.view
	}
	c.view.clearInPlace()
	for i := range w {
		c.view.Merge(c.recent(i))
		c.viewMerges++
	}
	c.viewWidth = w
	return c.view
}

// estimate returns merged(w)'s estimate and bounds for item from one
// lookup per covered interval: with L the sum of item's slot counters
// and O the sum of the slot offsets, the view answers (L+O, L, L+O) for
// a tracked item (L > 0) and (0, 0, O) for any other.
//
//freq:locked(mu)
func (c *ConcurrentWindowed[T]) estimate(w int, item T) (est, lb, ub int64) {
	var offset int64
	for i := range c.width(w) {
		s := c.recent(i)
		lb += s.LowerBound(item)
		offset += s.MaximumError()
	}
	if lb > 0 {
		est = lb + offset
	}
	return est, lb, lb + offset
}

// listed is what the per-slot lists of topK say about one item: the sum
// of the counters that listed it and the sum of those slots' cuts.
type listed struct{ lb, cut int64 }

// slotTop is one slot's list of its m largest counters; m is 0 when the
// list is not known to be current.
type slotTop[T comparable] struct {
	m   int
	top []pair[T]
}

// largest returns the m largest counters of the i-th newest slot. Only
// the head takes writes, so a sealed slot's list stays current until
// rotate recycles the slot as the head or Reset or UnmarshalBinary
// replaces it: it is taken from the table once and then reused, and a
// read of a live window scans only the head.
//
//freq:locked(mu)
func (c *ConcurrentWindowed[T]) largest(i, m int) []pair[T] {
	n := len(c.slots)
	t := &c.tops[(c.head-i+n)%n]
	switch {
	case i == 0:
		t.top, t.m = c.slots[c.head].appendLargest(t.top[:0], m), 0
	case t.m != m:
		t.top, t.m = c.recent(i).appendLargest(t.top[:0], m), m
	}
	return t.top
}

// topK returns merged(w).Query().Limit(k).Collect(), row for row, and
// when it can without building the view: the threshold algorithm of
// Fagin, Lotem and Naor over the covered slots. Each slot lists its
// m = 2k largest counters (see largest); its cut t is the smallest
// listed counter, or 0 when it listed them all, so an item it did not
// list has at most t there. A listed item's listed counters sum to a
// lower bound LB on L, and LB plus the cuts of the slots that did not
// list it is an upper bound UB; an item no slot listed has L <= T, the
// sum of the cuts. If at least k items are listed and θ, the k-th
// largest LB, exceeds T, then at least k items have L >= θ, so neither
// an unlisted item nor a listed one with UB < θ can rank. The rest are
// looked up exactly and ranked as rows (L+O, L, L+O) by Query. When the
// certificate fails, or the lists would hold more than 1/16 of the
// covered counters (w·2k·16 > Σ NumActive, where the lists stop being
// cheap beside the merge), topK merges.
//
//freq:locked(mu)
func (c *ConcurrentWindowed[T]) topK(w, k int) []Row[T] {
	w = c.width(w)
	active := 0
	for i := range w {
		active += c.recent(i).NumActive()
	}
	if k < 1 || k > active/(32*w) {
		return c.merged(w).Query().Limit(k).Collect()
	}
	m := 2 * k
	clear(c.lists)
	var cuts, offset int64
	for i := range w {
		s := c.recent(i)
		offset += s.MaximumError()
		top := c.largest(i, m)
		var t int64
		if s.NumActive() > m {
			t = top[0].weight
			for _, p := range top[1:] {
				t = min(t, p.weight)
			}
		}
		cuts += t
		for _, p := range top {
			l := c.lists[p.item]
			c.lists[p.item] = listed{lb: l.lb + p.weight, cut: l.cut + t}
		}
	}
	if len(c.lists) >= k {
		c.lbs = c.lbs[:0]
		for _, l := range c.lists {
			c.lbs = append(c.lbs, l.lb)
		}
		if theta := qselect.SelectKthLargest(c.lbs, k); theta > cuts {
			c.cands = c.cands[:0]
			for item, l := range c.lists {
				if l.lb+cuts-l.cut < theta {
					continue
				}
				var sum int64
				for i := range w {
					sum += c.recent(i).LowerBound(item)
				}
				c.cands = append(c.cands, Row[T]{Item: item, Estimate: sum + offset, LowerBound: sum, UpperBound: sum + offset})
			}
			return fromRows[T](rowList[T](c.cands)).Limit(k).Collect()
		}
	}
	return c.merged(w).Query().Limit(k).Collect()
}

// ViewMerges returns the cumulative number of per-interval merges
// performed building the cached merged view — the diagnostic for
// asserting the cache works: flat across repeated reads with no
// interleaved writes or rotations.
func (c *ConcurrentWindowed[T]) ViewMerges() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewMerges
}

// Last returns a read view of the last w intervals (w clamped to
// [1, N]): an independent copy of their merged view, taken under the
// lock, so it keeps its rows and bounds while the window takes writes
// and rotations. Its Query runs window-scoped, and a width-1 view
// reproduces the current interval's sketch answers exactly. The copy
// costs a merge and a table; EstimateLast, TopKLast,
// FrequentItemsAboveThresholdLast and AppendBinaryLast answer the same
// questions without one.
func (c *ConcurrentWindowed[T]) Last(w int) *View[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.merged(w)
	out, err := New[T](v.MaxCounters())
	if err != nil {
		// Unreachable: the cached view was built with this budget.
		panic(err)
	}
	return &View[T]{sk: out.SetSerDe(c.serde).Merge(v)}
}

// Estimate returns the point estimate for item over the full window.
func (c *ConcurrentWindowed[T]) Estimate(item T) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	est, _, _ := c.estimate(len(c.slots), item)
	return est
}

// EstimateLast returns the point estimate and certain bounds for item
// over the last w intervals — Last(w)'s answers — from one lookup per
// covered interval instead of a merge, read under one lock hold so the
// three values describe the same window state.
func (c *ConcurrentWindowed[T]) EstimateLast(w int, item T) (est, lb, ub int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.estimate(w, item)
}

// LowerBound returns a value certainly <= item's frequency within the
// window.
func (c *ConcurrentWindowed[T]) LowerBound(item T) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, lb, _ := c.estimate(len(c.slots), item)
	return lb
}

// UpperBound returns a value certainly >= item's frequency within the
// window.
func (c *ConcurrentWindowed[T]) UpperBound(item T) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _, ub := c.estimate(len(c.slots), item)
	return ub
}

// MaximumError returns the merged window's error band: the sum of the
// covered intervals' bands (Theorem 5); zero while every interval stays
// within its own budget.
func (c *ConcurrentWindowed[T]) MaximumError() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.merged(len(c.slots)).MaximumError()
}

// StreamWeight returns the total weight inside the window — weight
// rotated out of scope no longer counts.
func (c *ConcurrentWindowed[T]) StreamWeight() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.merged(len(c.slots)).StreamWeight()
}

// NumActive returns the number of assigned counters in the merged
// window view.
func (c *ConcurrentWindowed[T]) NumActive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.merged(len(c.slots)).NumActive()
}

// All iterates every tracked row of the full-window merged view as
// (item, row) pairs, in unspecified order. The window's lock is held
// for the whole iteration: other goroutines' writes wait, and writing
// to the window from inside the loop deadlocks.
func (c *ConcurrentWindowed[T]) All() iter.Seq2[T, Row[T]] {
	return func(yield func(T, Row[T]) bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for item, r := range c.merged(len(c.slots)).All() {
			if !yield(item, r) {
				return
			}
		}
	}
}

// Query starts a composable query over the full window; Last(w) scopes
// one to a suffix.
func (c *ConcurrentWindowed[T]) Query() *Query[T] { return From[T](c) }

// FrequentItemsAboveThresholdLast returns the rows of the last w
// intervals that clear threshold under et, ordered by descending
// estimate (ties by item): Query().Where(threshold).WithErrorType(et)
// over Last(w), with the merge and the scan under one hold of the lock.
func (c *ConcurrentWindowed[T]) FrequentItemsAboveThresholdLast(w int, threshold int64, et ErrorType) []Row[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.merged(w).Query().Where(threshold).WithErrorType(et).Collect()
}

// TopKLast returns up to k rows with the largest estimates over the
// last w intervals (ties by item): the rows of Query().Limit(k) over
// Last(w), read under one hold of the lock. On skewed traffic it ranks
// from each interval's 2k largest counters (a sealed interval's list is
// kept until rotation recycles it) and certifies the result without
// merging the window; when the certificate fails (flat traffic) or k is
// large beside the window's counters, it merges.
func (c *ConcurrentWindowed[T]) TopKLast(w, k int) []Row[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.topK(w, k)
}

// AppendBinaryLast appends the serialized merged view of the last w
// intervals to dst — a plain single-sketch encoding, decodable with
// Sketch.UnmarshalBinary (the wire server's window-scoped SNAP path).
func (c *ConcurrentWindowed[T]) AppendBinaryLast(w int, dst []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.merged(w).AppendBinary(dst)
}

func (c *ConcurrentWindowed[T]) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("freq.ConcurrentWindowed(intervals=%d, k=%d, head=%d, rotations=%d): N=%d",
		len(c.slots), c.k, c.head, c.rotations, c.merged(len(c.slots)).StreamWeight())
}

// windowedMagic opens a serialized ring (its trailing digit is the
// format version): the whole window ships as one blob — the magic, the
// ring geometry, then every slot's ordinary self-delimiting sketch
// encoding in slot order. Decoding is all-or-nothing and adopts the
// blob's geometry, as Sketch.UnmarshalBinary adopts the encoded
// configuration.
const windowedMagic = "FWR1"

// appendRing appends the ring's encoding to dst.
//
//freq:locked(mu)
func (c *ConcurrentWindowed[T]) appendRing(dst []byte) ([]byte, error) {
	dst = append(dst, windowedMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(c.slots)))
	dst = binary.AppendUvarint(dst, uint64(c.head))
	dst = binary.AppendUvarint(dst, uint64(c.rotations))
	var err error
	for _, s := range c.slots {
		if dst, err = s.AppendBinary(dst); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// AppendBinary implements encoding.BinaryAppender: the ring's encoding
// is appended to dst and the extended slice returned.
func (c *ConcurrentWindowed[T]) AppendBinary(dst []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appendRing(dst)
}

// MarshalBinary implements encoding.BinaryMarshaler over the whole
// ring.
func (c *ConcurrentWindowed[T]) MarshalBinary() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appendRing(nil)
}

// WriteTo encodes the whole ring to w, implementing io.WriterTo. The
// ring is encoded under the lock and written after it is released.
func (c *ConcurrentWindowed[T]) WriteTo(w io.Writer) (int64, error) {
	c.mu.Lock()
	blob, err := c.appendRing(nil)
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(blob)
	return int64(n), err
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's entire ring — geometry included — with the decoded one.
// All-or-nothing: any rejected input leaves the previous state intact.
// An installed SerDe is kept and used for the decode.
func (c *ConcurrentWindowed[T]) UnmarshalBinary(data []byte) error {
	if len(data) < len(windowedMagic) || string(data[:len(windowedMagic)]) != windowedMagic {
		return fmt.Errorf("%w: missing windowed ring magic", ErrCorrupt)
	}
	r := bytes.NewReader(data[len(windowedMagic):])
	intervals, err := binary.ReadUvarint(r)
	if err != nil || intervals < 1 {
		return fmt.Errorf("%w: bad interval count", ErrCorrupt)
	}
	head, err := binary.ReadUvarint(r)
	if err != nil || head >= intervals {
		return fmt.Errorf("%w: head %d outside ring of %d", ErrCorrupt, head, intervals)
	}
	rotations, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("%w: bad rotation count", ErrCorrupt)
	}
	// Guard the slot allocation against a hostile count before any
	// decode work: each slot must contribute at least one byte.
	if intervals > uint64(r.Len())+1 {
		return fmt.Errorf("%w: %d intervals in %d bytes", ErrCorrupt, intervals, r.Len())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	slots := make([]*Sketch[T], intervals)
	maxK := 1
	for i := range slots {
		if slots[i], err = New[T](1); err != nil {
			return err
		}
		s := slots[i].SetSerDe(c.serde)
		if _, err := s.ReadFrom(r); err != nil {
			return fmt.Errorf("%w: slot %d: %v", ErrCorrupt, i, err)
		}
		maxK = max(maxK, s.MaxCounters())
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Len())
	}
	view, err := New[T](viewBudget(slots))
	if err != nil {
		return err
	}
	c.slots, c.head, c.k, c.rotations = slots, int(head), maxK, int64(rotations)
	c.view, c.viewWidth, c.tops = view.SetSerDe(c.serde), 0, make([]slotTop[T], intervals)
	return nil
}
