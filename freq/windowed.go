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

// Windowed is the sliding-window heavy-hitters summary: a ring of
// per-interval sketches answering "which items carried the most weight
// over the last N intervals?" — the first question a traffic monitor
// asks, and the time-binned rotation workload of systems like goProbe.
// Writes land in the head interval through the ordinary batched hot
// path; Rotate retires the oldest interval and recycles its sketch
// in place as the new head (core slot recycling — after the ring is
// warm a rotation allocates nothing). The Queryable methods and Last(w)
// answer from a merged view of the last w intervals, cached by write
// epoch so repeated queries with no interleaved writes or rotations
// re-merge nothing; ConcurrentWindowed's TopKLast and EstimateLast read
// the covered slots directly and give the merged view's answers without
// building it (TopKLast merges only when it cannot certify the top k).
//
//	wd, _ := freq.NewWindowed[uint64](4096, 60)      // 60 intervals of 4096 counters
//	go every(time.Second, wd.Rotate)                 // caller-driven rotation
//	wd.Update(srcIP, packetBytes)
//	top := wd.Query().Limit(10).Collect()            // over the whole window
//	recent := wd.Last(5).Query().Limit(10).Collect() // over the last 5 intervals
//
// Windowed implements Queryable over the full window, so Query works
// unchanged; Last scopes it to a suffix of the window. The merged view
// carries the sum of the covered intervals' error bands (Theorem 5);
// while every covered interval stays within its own budget the view
// adds no error of its own, and a width-1 view reproduces its
// interval's sketch answers exactly.
//
// A Windowed is not safe for concurrent use — rotation and writes
// mutate shared state. ConcurrentWindowed is the goroutine-safe
// wrapper with an optional wall-clock rotation driver.
type Windowed[T comparable] struct {
	slots []*Sketch[T] // ring; slots[head] is the current interval
	head  int
	k     int // per-interval counter budget (as constructed/decoded)

	// epoch counts mutations (writes and rotations); the merged-view
	// cache is fresh exactly when its epoch matches.
	epoch     uint64
	rotations int64

	// view is the reusable merged read sketch behind the Queryable
	// methods, Last, and the FI and SNAP reads (budget = sum of the
	// slots' MaxCounters, so window merges never evict); cleared in place
	// and rebuilt when a read needs a width/epoch the cache doesn't hold.
	// EstimateLast never builds it, and TopKLast only when it cannot
	// certify its rows.
	view       *Sketch[T]
	viewEpoch  uint64
	viewWidth  int
	viewOK     bool
	viewMerges int64

	// topK's scratch, reused across reads: each slot's largest
	// counters, what the lists say about each listed item, the listed
	// lower bounds θ is selected from, and the rows that may rank.
	tops  []slotTop[T]
	lists map[T]listed
	lbs   []int64
	cands []Row[T]

	// sink, when set, receives each retiring head slot at rotation —
	// the durable-store hook: the slot's contents are persisted before
	// the ring recycles its table. headStart is the wall-clock start of
	// the current head interval; sinkErr records the most recent sink
	// failure (rotation never blocks on a failing sink).
	sink      RotationSink[T]
	headStart time.Time
	sinkErr   error

	serde SerDe[T]
}

// RotationSink receives retired window intervals at rotation, before
// their sketches are recycled as the new head — the hand-off between
// the in-memory ring and a durable history (freq/store's Store
// implements it). The view aliases the live slot and is valid only for
// the duration of the call; implementations that keep the data must
// serialize it (View.AppendBinary) before returning. Returning an
// error never aborts the rotation; the window records it (SinkErr).
type RotationSink[T comparable] interface {
	AppendSlot(v *View[T], start, end time.Time) error
}

// Compile-time proof that the windowed front-ends serve the same query
// surface as everything else.
var (
	_ Queryable[int64]  = (*Windowed[int64])(nil)
	_ Queryable[string] = (*Windowed[string])(nil)
	_ Queryable[int64]  = (*ConcurrentWindowed[int64])(nil)
)

// NewWindowed returns a sliding window of `intervals` ring slots, each
// a sketch with counter budget k configured by opts (the usual
// construction options apply per interval). The window covers the
// current interval plus the intervals-1 before it; the caller drives
// interval boundaries via Rotate. A pinned seed (WithSeed) is varied
// per slot so the intervals' probe behaviour never correlates; the
// merged view is pre-built here, so rotation and steady-state
// re-merges allocate nothing.
func NewWindowed[T comparable](k, intervals int, opts ...Option) (*Windowed[T], error) {
	if intervals < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadIntervals, intervals)
	}
	cfg, err := resolve(k, opts)
	if err != nil {
		return nil, err
	}
	wd := &Windowed[T]{slots: make([]*Sketch[T], intervals), k: cfg.k}
	for i := range wd.slots {
		slotCfg := cfg
		if cfg.seed != 0 {
			slotCfg.seed = deriveSeed(cfg.seed, uint64(i)+1)
		}
		if wd.slots[i], err = newFromConfig[T](slotCfg); err != nil {
			return nil, err
		}
	}
	viewCfg := cfg
	viewCfg.k = viewBudget(wd.slots)
	if cfg.seed != 0 {
		viewCfg.seed = deriveSeed(cfg.seed, uint64(intervals)+1)
	}
	if wd.view, err = newFromConfig[T](viewCfg); err != nil {
		return nil, err
	}
	return wd, nil
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
// type without a built-in codec, and returns wd for chaining.
func (wd *Windowed[T]) SetSerDe(sd SerDe[T]) *Windowed[T] {
	wd.serde = sd
	for _, s := range wd.slots {
		s.SetSerDe(sd)
	}
	wd.view.SetSerDe(sd)
	return wd
}

// Intervals returns the ring size N: the number of intervals the window
// covers, including the current one.
func (wd *Windowed[T]) Intervals() int { return len(wd.slots) }

// IntervalCounters returns the per-interval counter budget k.
func (wd *Windowed[T]) IntervalCounters() int { return wd.k }

// Rotations returns how many times the window has advanced.
func (wd *Windowed[T]) Rotations() int64 { return wd.rotations }

// head slot accessor, shared by the write paths.
func (wd *Windowed[T]) headSlot() *Sketch[T] { return wd.slots[wd.head] }

// width clamps a read's interval count to [1, N].
func (wd *Windowed[T]) width(w int) int { return min(max(w, 1), len(wd.slots)) }

// recent returns the i-th newest interval's sketch; 0 is the head.
func (wd *Windowed[T]) recent(i int) *Sketch[T] {
	n := len(wd.slots)
	return wd.slots[(wd.head-i+n)%n]
}

// Rotate advances the window one interval: the oldest interval falls
// out of scope and its sketch is recycled in place as the new (empty)
// head — O(table) state clearing, no allocation once the ring is warm.
// Callers define what an interval is by when they call Rotate (a
// wall-clock ticker, a record count, a file boundary). With a rotation
// sink installed, Rotate stamps the boundary with time.Now(); use
// RotateAt to supply the boundary time explicitly (the aligned driver
// and deterministic tests do).
func (wd *Windowed[T]) Rotate() {
	if wd.sink != nil {
		wd.RotateAt(time.Now())
		return
	}
	wd.advance()
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
func (wd *Windowed[T]) RotateAt(end time.Time) {
	if wd.sink != nil {
		if h := wd.headSlot(); !h.IsEmpty() {
			if err := wd.sink.AppendSlot(&View[T]{sk: h}, wd.headStart, end); err != nil {
				wd.sinkErr = err
			}
		}
		wd.headStart = end
	}
	wd.advance()
}

// advance is the ring mechanics shared by Rotate and RotateAt.
func (wd *Windowed[T]) advance() {
	wd.head = (wd.head + 1) % len(wd.slots)
	wd.slots[wd.head].clearInPlace()
	if wd.tops != nil {
		wd.tops[wd.head].m = 0
	}
	wd.rotations++
	wd.epoch++
	wd.viewOK = false
}

// SetRotationSink installs (or with nil removes) the rotation sink and
// marks headStart as the wall-clock start of the current head interval,
// then returns wd for chaining. Install the sink before the first write
// of the interval it should cover; slots already rotated out are gone.
func (wd *Windowed[T]) SetRotationSink(sink RotationSink[T], headStart time.Time) *Windowed[T] {
	wd.sink = sink
	wd.headStart = headStart
	return wd
}

// SinkErr returns the most recent rotation-sink failure, or nil. Sink
// errors never abort rotations; this is where they surface.
func (wd *Windowed[T]) SinkErr() error { return wd.sinkErr }

// Reset empties every interval of the window in place (the same
// alloc-free slot recycling as rotation) and rewinds the rotation
// count, returning the ring to its freshly constructed state.
func (wd *Windowed[T]) Reset() {
	for _, s := range wd.slots {
		s.clearInPlace()
	}
	for i := range wd.tops {
		wd.tops[i].m = 0
	}
	wd.head = 0
	wd.rotations = 0
	wd.epoch++
	wd.viewOK = false
}

// Update adds weight to item's frequency in the current interval. Zero
// weights are no-ops; negative weights return ErrNegativeWeight.
func (wd *Windowed[T]) Update(item T, weight int64) error {
	if err := wd.headSlot().Update(item, weight); err != nil {
		return err
	}
	wd.epoch++
	return nil
}

// UpdateOne adds a unit-weight occurrence of item to the current
// interval.
func (wd *Windowed[T]) UpdateOne(item T) {
	wd.headSlot().UpdateOne(item)
	wd.epoch++
}

// UpdateBatch adds a unit-weight occurrence of every item to the
// current interval through the batched hot path.
func (wd *Windowed[T]) UpdateBatch(items []T) {
	wd.headSlot().UpdateBatch(items)
	wd.epoch++
}

// UpdateWeightedBatch adds weights[i] to items[i]'s frequency in the
// current interval — the batched ingest path, with the facade's
// all-or-nothing validation (ErrLengthMismatch, ErrNegativeWeight).
func (wd *Windowed[T]) UpdateWeightedBatch(items []T, weights []int64) error {
	if err := wd.headSlot().UpdateWeightedBatch(items, weights); err != nil {
		return err
	}
	wd.epoch++
	return nil
}

// merged returns the cached merged sketch over the last w intervals
// (clamped to [1, N]), rebuilding it only when the cache holds a
// different width or a write or rotation landed since it was built. A
// rebuild clears the reusable view sketch in place and folds the
// covered slots in newest-first via the bulk merge kernels; the view's
// combined budget admits every covered counter, so the merge itself
// never evicts: an item's counter is the sum L of its slot counters,
// and the offset O the sum of the slot offsets (Theorem 5).
func (wd *Windowed[T]) merged(w int) *Sketch[T] {
	w = wd.width(w)
	if wd.viewOK && wd.viewEpoch == wd.epoch && wd.viewWidth == w {
		return wd.view
	}
	wd.view.clearInPlace()
	for i := range w {
		wd.view.Merge(wd.recent(i))
		wd.viewMerges++
	}
	wd.viewEpoch, wd.viewWidth, wd.viewOK = wd.epoch, w, true
	return wd.view
}

// estimate returns merged(w)'s estimate and bounds for item from one
// lookup per covered interval: with L the sum of item's slot counters
// and O the sum of the slot offsets, the view answers (L+O, L, L+O) for
// a tracked item (L > 0) and (0, 0, O) for any other.
func (wd *Windowed[T]) estimate(w int, item T) (est, lb, ub int64) {
	var offset int64
	for i := range wd.width(w) {
		s := wd.recent(i)
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
// advance recycles the slot as the head or Reset or UnmarshalBinary
// replaces it: it is taken from the table once and then reused, and a
// read of a live window scans only the head.
func (wd *Windowed[T]) largest(i, m int) []pair[T] {
	n := len(wd.slots)
	if len(wd.tops) != n {
		wd.tops = make([]slotTop[T], n)
	}
	c := &wd.tops[(wd.head-i+n)%n]
	switch {
	case i == 0:
		c.top, c.m = wd.headSlot().appendLargest(c.top[:0], m), 0
	case c.m != m:
		c.top, c.m = wd.recent(i).appendLargest(c.top[:0], m), m
	}
	return c.top
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
func (wd *Windowed[T]) topK(w, k int) []Row[T] {
	w = wd.width(w)
	active := 0
	for i := range w {
		active += wd.recent(i).NumActive()
	}
	if k < 1 || k > active/(32*w) {
		return wd.merged(w).Query().Limit(k).Collect()
	}
	m := 2 * k
	if wd.lists == nil {
		wd.lists = make(map[T]listed)
	}
	clear(wd.lists)
	var cuts, offset int64
	for i := range w {
		s := wd.recent(i)
		offset += s.MaximumError()
		top := wd.largest(i, m)
		var t int64
		if s.NumActive() > m {
			t = top[0].weight
			for _, p := range top[1:] {
				t = min(t, p.weight)
			}
		}
		cuts += t
		for _, p := range top {
			l := wd.lists[p.item]
			wd.lists[p.item] = listed{lb: l.lb + p.weight, cut: l.cut + t}
		}
	}
	if len(wd.lists) >= k {
		wd.lbs = wd.lbs[:0]
		for _, l := range wd.lists {
			wd.lbs = append(wd.lbs, l.lb)
		}
		if theta := qselect.SelectKthLargest(wd.lbs, k); theta > cuts {
			wd.cands = wd.cands[:0]
			for item, l := range wd.lists {
				if l.lb+cuts-l.cut < theta {
					continue
				}
				var sum int64
				for i := range w {
					sum += wd.recent(i).LowerBound(item)
				}
				wd.cands = append(wd.cands, Row[T]{Item: item, Estimate: sum + offset, LowerBound: sum, UpperBound: sum + offset})
			}
			return fromRows[T](rowList[T](wd.cands)).Limit(k).Collect()
		}
	}
	return wd.merged(w).Query().Limit(k).Collect()
}

// ViewMerges returns the cumulative number of per-interval merges
// performed building read views — the diagnostic for asserting the
// epoch cache works: flat across repeated reads with no interleaved
// writes or rotations.
func (wd *Windowed[T]) ViewMerges() int64 { return wd.viewMerges }

// Last returns a read view scoped to the last w intervals (w clamped to
// [1, N]): a Queryable façade over the merged suffix, so Query runs
// window-scoped. The view aliases the window's
// single cached merge sketch — unlike a Concurrent view it is NOT an
// independent snapshot: it is valid only until the next write, Rotate,
// or any read at a different width (including the full-window Queryable
// methods), each of which rebuilds the shared cache in place. Consume a
// Last view immediately, or Materialize it to keep it. A width-1 view
// reproduces the current interval's sketch answers exactly.
func (wd *Windowed[T]) Last(w int) *View[T] {
	return &View[T]{sk: wd.merged(w)}
}

// Estimate returns the point estimate for item over the full window.
func (wd *Windowed[T]) Estimate(item T) int64 {
	return wd.merged(len(wd.slots)).Estimate(item)
}

// LowerBound returns a value certainly <= item's frequency within the
// window.
func (wd *Windowed[T]) LowerBound(item T) int64 {
	return wd.merged(len(wd.slots)).LowerBound(item)
}

// UpperBound returns a value certainly >= item's frequency within the
// window.
func (wd *Windowed[T]) UpperBound(item T) int64 {
	return wd.merged(len(wd.slots)).UpperBound(item)
}

// MaximumError returns the merged window's error band: the sum of the
// covered intervals' bands (Theorem 5); zero while every interval stays
// within its own budget.
func (wd *Windowed[T]) MaximumError() int64 {
	return wd.merged(len(wd.slots)).MaximumError()
}

// StreamWeight returns the total weight inside the window — weight
// rotated out of scope no longer counts.
func (wd *Windowed[T]) StreamWeight() int64 {
	return wd.merged(len(wd.slots)).StreamWeight()
}

// NumActive returns the number of assigned counters in the merged
// window view.
func (wd *Windowed[T]) NumActive() int {
	return wd.merged(len(wd.slots)).NumActive()
}

// All iterates every tracked row of the full-window merged view as
// (item, row) pairs, in unspecified order. The window must not be
// mutated while the iterator is live.
func (wd *Windowed[T]) All() iter.Seq2[T, Row[T]] {
	return wd.merged(len(wd.slots)).All()
}

// Query starts a composable query over the full window; use Last(w) to
// scope it to a suffix.
func (wd *Windowed[T]) Query() *Query[T] { return From[T](wd) }

func (wd *Windowed[T]) String() string {
	return fmt.Sprintf("freq.Windowed(intervals=%d, k=%d, head=%d, rotations=%d): N=%d",
		len(wd.slots), wd.k, wd.head, wd.rotations, wd.StreamWeight())
}

// Ring serialization: the whole window ships as one blob — a fixed
// magic, the ring geometry, then every slot's ordinary self-delimiting
// sketch encoding in slot order. Decoding is all-or-nothing and may
// reshape the receiver (the ring geometry comes from the blob, exactly
// as Sketch.UnmarshalBinary adopts the encoded configuration).

// windowedMagic brands a serialized ring; the trailing digit is the
// format version.
const windowedMagic = "FWR1"

// AppendBinary implements encoding.BinaryAppender: the ring's encoding
// is appended to dst and the extended slice returned.
func (wd *Windowed[T]) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, windowedMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(wd.slots)))
	dst = binary.AppendUvarint(dst, uint64(wd.head))
	dst = binary.AppendUvarint(dst, uint64(wd.rotations))
	var err error
	for _, s := range wd.slots {
		if dst, err = s.AppendBinary(dst); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// MarshalBinary implements encoding.BinaryMarshaler over the whole
// ring.
func (wd *Windowed[T]) MarshalBinary() ([]byte, error) {
	return wd.AppendBinary(nil)
}

// WriteTo encodes the whole ring to w, implementing io.WriterTo.
func (wd *Windowed[T]) WriteTo(w io.Writer) (int64, error) {
	blob, err := wd.MarshalBinary()
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
func (wd *Windowed[T]) UnmarshalBinary(data []byte) error {
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
	slots := make([]*Sketch[T], intervals)
	maxK := 1
	for i := range slots {
		if slots[i], err = New[T](1); err != nil {
			return err
		}
		s := slots[i]
		if wd.serde != nil {
			s.SetSerDe(wd.serde)
		}
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
	if wd.serde != nil {
		view.SetSerDe(wd.serde)
	}
	wd.slots = slots
	wd.head = int(head)
	wd.k = maxK
	wd.rotations = int64(rotations)
	wd.view = view
	wd.viewOK = false
	wd.tops = nil
	wd.epoch++
	return nil
}

// ConcurrentWindowed is the goroutine-safe sliding-window summary: a
// Windowed ring behind one mutex, safe for any number of writers,
// readers, and one rotation driver (StartRotating attaches a wall-clock
// ticker; Rotate remains available for manual or test-driven
// boundaries). The Last reads (EstimateLast, TopKLast,
// FrequentItemsAboveThresholdLast, AppendBinaryLast) answer under one
// hold of the lock and return their result, so the slices are safe to
// keep; All, and so a Query, holds the lock for the whole scan — do not
// write to the window from inside the loop.
type ConcurrentWindowed[T comparable] struct {
	mu sync.Mutex
	wd *Windowed[T]
}

// NewConcurrentWindowed returns a goroutine-safe sliding window of
// `intervals` slots with per-interval budget k; see NewWindowed.
func NewConcurrentWindowed[T comparable](k, intervals int, opts ...Option) (*ConcurrentWindowed[T], error) {
	wd, err := NewWindowed[T](k, intervals, opts...)
	if err != nil {
		return nil, err
	}
	return &ConcurrentWindowed[T]{wd: wd}, nil
}

// Intervals returns the ring size N.
func (c *ConcurrentWindowed[T]) Intervals() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.Intervals()
}

// Rotations returns how many times the window has advanced.
func (c *ConcurrentWindowed[T]) Rotations() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.Rotations()
}

// Rotate advances the window one interval; safe for concurrent use.
func (c *ConcurrentWindowed[T]) Rotate() {
	c.mu.Lock()
	c.wd.Rotate()
	c.mu.Unlock()
}

// RotateAt advances the window one interval with an explicit boundary
// timestamp (see Windowed.RotateAt); safe for concurrent use.
func (c *ConcurrentWindowed[T]) RotateAt(end time.Time) {
	c.mu.Lock()
	c.wd.RotateAt(end)
	c.mu.Unlock()
}

// SetRotationSink installs the rotation sink on the underlying window
// (see Windowed.SetRotationSink); safe for concurrent use. The sink is
// invoked with the window lock held, so it must not call back into the
// window.
func (c *ConcurrentWindowed[T]) SetRotationSink(sink RotationSink[T], headStart time.Time) *ConcurrentWindowed[T] {
	c.mu.Lock()
	c.wd.SetRotationSink(sink, headStart)
	c.mu.Unlock()
	return c
}

// SinkErr returns the most recent rotation-sink failure, or nil.
func (c *ConcurrentWindowed[T]) SinkErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.SinkErr()
}

// Reset empties every interval and rewinds the rotation count; safe for
// concurrent use.
func (c *ConcurrentWindowed[T]) Reset() {
	c.mu.Lock()
	c.wd.Reset()
	c.mu.Unlock()
}

// StartRotating attaches a wall-clock rotation driver: a background
// timer calls RotateAt at every interval boundary until the returned
// stop function is called. stop is idempotent and synchronous — it
// blocks until the driver has exited, so once it returns no further
// rotation (and no further rotation-sink append) will occur. With it, a
// 60-interval window rotated every second is a rolling top-k over the
// last minute:
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
				c.RotateAt(next)
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

// Update adds weight to item's frequency in the current interval; safe
// for concurrent use.
func (c *ConcurrentWindowed[T]) Update(item T, weight int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.Update(item, weight)
}

// UpdateOne adds a unit-weight occurrence of item to the current
// interval; safe for concurrent use.
func (c *ConcurrentWindowed[T]) UpdateOne(item T) {
	c.mu.Lock()
	c.wd.UpdateOne(item)
	c.mu.Unlock()
}

// UpdateBatch adds a unit-weight occurrence of every item to the
// current interval under one lock acquisition.
func (c *ConcurrentWindowed[T]) UpdateBatch(items []T) {
	c.mu.Lock()
	c.wd.UpdateBatch(items)
	c.mu.Unlock()
}

// UpdateWeightedBatch adds weights[i] to items[i]'s frequency in the
// current interval under one lock acquisition, with the facade's
// all-or-nothing validation.
func (c *ConcurrentWindowed[T]) UpdateWeightedBatch(items []T, weights []int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.UpdateWeightedBatch(items, weights)
}

// Estimate returns the point estimate for item over the full window.
func (c *ConcurrentWindowed[T]) Estimate(item T) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.Estimate(item)
}

// EstimateLast returns the point estimate and certain bounds for item
// over the last w intervals — Last(w)'s answers — from one lookup per
// covered interval instead of a merge, read under one lock hold so the
// three values describe the same window state.
func (c *ConcurrentWindowed[T]) EstimateLast(w int, item T) (est, lb, ub int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.estimate(w, item)
}

// LowerBound returns a value certainly <= item's frequency within the
// window.
func (c *ConcurrentWindowed[T]) LowerBound(item T) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.LowerBound(item)
}

// UpperBound returns a value certainly >= item's frequency within the
// window.
func (c *ConcurrentWindowed[T]) UpperBound(item T) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.UpperBound(item)
}

// MaximumError returns the merged window's error band.
func (c *ConcurrentWindowed[T]) MaximumError() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.MaximumError()
}

// StreamWeight returns the total weight inside the window.
func (c *ConcurrentWindowed[T]) StreamWeight() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.StreamWeight()
}

// ViewMerges returns the cumulative per-interval merge count of the
// epoch-cached view (diagnostics).
func (c *ConcurrentWindowed[T]) ViewMerges() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.ViewMerges()
}

// All iterates every tracked row of the full-window view. The window's
// lock is held for the whole iteration: other goroutines' writes wait,
// and writing to the window from inside the loop deadlocks.
func (c *ConcurrentWindowed[T]) All() iter.Seq2[T, Row[T]] {
	return func(yield func(T, Row[T]) bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for item, r := range c.wd.All() {
			if !yield(item, r) {
				return
			}
		}
	}
}

// Query starts a composable query over the full window.
func (c *ConcurrentWindowed[T]) Query() *Query[T] { return From[T](c) }

// FrequentItemsAboveThresholdLast returns the rows of the last w
// intervals that clear threshold under et, ordered by descending
// estimate (ties by item): Query().Where(threshold).WithErrorType(et)
// over Last(w), with the merge and the scan under one hold of the lock.
func (c *ConcurrentWindowed[T]) FrequentItemsAboveThresholdLast(w int, threshold int64, et ErrorType) []Row[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.merged(w).Query().Where(threshold).WithErrorType(et).Collect()
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
	return c.wd.topK(w, k)
}

// AppendBinaryLast appends the serialized merged view of the last w
// intervals to dst — a plain single-sketch encoding, decodable with
// Sketch.UnmarshalBinary (the wire server's window-scoped SNAP path).
func (c *ConcurrentWindowed[T]) AppendBinaryLast(w int, dst []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.merged(w).AppendBinary(dst)
}

// MarshalBinary implements encoding.BinaryMarshaler over the whole
// ring; decode with Windowed.UnmarshalBinary or
// ConcurrentWindowed.UnmarshalBinary.
func (c *ConcurrentWindowed[T]) MarshalBinary() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.MarshalBinary()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// ring with the decoded one (all-or-nothing).
func (c *ConcurrentWindowed[T]) UnmarshalBinary(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wd.UnmarshalBinary(data)
}

func (c *ConcurrentWindowed[T]) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("freq.ConcurrentWindowed(intervals=%d, k=%d, head=%d, rotations=%d): N=%d",
		len(c.wd.slots), c.wd.k, c.wd.head, c.wd.rotations, c.wd.StreamWeight())
}
