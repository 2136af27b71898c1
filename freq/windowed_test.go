// Sliding-window tests: rotation/expiry semantics, the window-scoped ==
// fresh-sketch property, alloc-free rotation, the cached merged view,
// Last snapshots, ring serialization, rotation sinks and drivers, and
// the race test the CI -race run exercises.
package freq

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// collectRows returns every row of q ordered by descending estimate
// (ties by item) — the deterministic full listing used for equality
// checks.
func collectRows[T comparable](q Queryable[T]) []Row[T] {
	return From[T](q).Collect()
}

func TestWindowedConstruction(t *testing.T) {
	if _, err := NewConcurrentWindowed[int64](64, 0); !errors.Is(err, ErrBadIntervals) {
		t.Fatalf("intervals=0: got %v, want ErrBadIntervals", err)
	}
	if _, err := NewConcurrentWindowed[int64](64, -3); !errors.Is(err, ErrBadIntervals) {
		t.Fatalf("intervals=-3: got %v, want ErrBadIntervals", err)
	}
	if _, err := NewConcurrentWindowed[int64](0, 4); !errors.Is(err, ErrTooFewCounters) {
		t.Fatalf("k=0: got %v, want ErrTooFewCounters", err)
	}
	cw, err := NewConcurrentWindowed[int64](128, 6)
	if err != nil {
		t.Fatal(err)
	}
	if cw.Intervals() != 6 || cw.IntervalCounters() != 128 || cw.Rotations() != 0 {
		t.Fatalf("accessors: got (%d, %d, %d)", cw.Intervals(), cw.IntervalCounters(), cw.Rotations())
	}
}

func TestWindowedPinnedSeedDistinctPerSlot(t *testing.T) {
	cw, err := NewConcurrentWindowed[int64](64, 8, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for i, s := range cw.slots {
		seen[s.fast.Seed()]++
		if s.fast.Seed() == 0 {
			t.Fatalf("slot %d: zero derived seed", i)
		}
	}
	if len(seen) != len(cw.slots) {
		t.Fatalf("pinned seed shared between slots: %d distinct of %d", len(seen), len(cw.slots))
	}
	// Reproducibility: the same pinned seed derives the same slot seeds.
	cw2, err := NewConcurrentWindowed[int64](64, 8, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cw.slots {
		if cw.slots[i].fast.Seed() != cw2.slots[i].fast.Seed() {
			t.Fatalf("slot %d: pinned seeds not reproducible", i)
		}
	}
}

func TestWindowedExpiry(t *testing.T) {
	const n = 4
	cw, err := NewConcurrentWindowed[int64](64, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Update(7, 100); err != nil {
		t.Fatal(err)
	}
	// The item stays in scope for the n-1 rotations after its interval.
	for r := 0; r < n-1; r++ {
		cw.Rotate()
		if got := cw.Estimate(7); got != 100 {
			t.Fatalf("after %d rotations: estimate=%d, want 100", r+1, got)
		}
	}
	// The n-th rotation recycles its slot: fully out of scope.
	cw.Rotate()
	if got := cw.Estimate(7); got != 0 {
		t.Fatalf("after %d rotations: estimate=%d, want 0", n, got)
	}
	if got := cw.StreamWeight(); got != 0 {
		t.Fatalf("expired weight still counted: N=%d", got)
	}
	if got := cw.Rotations(); got != n {
		t.Fatalf("rotations=%d, want %d", got, n)
	}
}

func TestWindowedWriteValidation(t *testing.T) {
	cw, err := NewConcurrentWindowed[int64](64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Update(1, -5); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("negative weight: got %v", err)
	}
	if err := cw.UpdateWeightedBatch([]int64{1, 2}, []int64{1}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("length mismatch: got %v", err)
	}
	if err := cw.UpdateWeightedBatch([]int64{1, 2}, []int64{1, -1}); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("negative batch weight: got %v", err)
	}
	if got := cw.StreamWeight(); got != 0 {
		t.Fatalf("rejected updates leaked weight: N=%d", got)
	}
}

// TestWindowedScopedEqualsFreshProperty is the acceptance property: a
// window-scoped query over the last w intervals returns byte-identical
// rows to a fresh sketch fed exactly those intervals' updates. The
// streams keep every interval within its budget, so neither side ever
// decrements and the comparison is exact (estimates, bounds, and
// ordering all included).
func TestWindowedScopedEqualsFreshProperty(t *testing.T) {
	const (
		k         = 256
		intervals = 4
		rounds    = 11 // ~3 full wraps of the ring
	)
	rng := rand.New(rand.NewSource(0x57a7))
	cw, err := NewConcurrentWindowed[int64](k, intervals)
	if err != nil {
		t.Fatal(err)
	}
	// history[r] holds interval r's stream (items and weights).
	type stream struct {
		items   []int64
		weights []int64
	}
	var history []stream

	check := func() {
		live := len(history) // intervals seen so far, newest last
		for w := 1; w <= intervals; w++ {
			fresh, err := New[int64](k * intervals)
			if err != nil {
				t.Fatal(err)
			}
			for i := max(0, live-w); i < live; i++ {
				if err := fresh.UpdateWeightedBatch(history[i].items, history[i].weights); err != nil {
					t.Fatal(err)
				}
			}
			got := collectRows[int64](cw.Last(w))
			want := collectRows[int64](fresh)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d width %d: scoped rows diverge from fresh sketch\n got %v\nwant %v",
					live, w, got, want)
			}
		}
		// The Queryable surface of the ring itself answers as the
		// full-width view.
		if got, want := collectRows[int64](cw), collectRows[int64](cw.Last(intervals)); !reflect.DeepEqual(got, want) {
			t.Fatalf("full-window rows != Last(%d) rows", intervals)
		}
	}

	for r := 0; r < rounds; r++ {
		if r > 0 {
			cw.Rotate()
			if len(history) == intervals {
				history = history[1:] // the oldest interval left the window
			}
		}
		// One interval's traffic: ~40 distinct items, some repeating, in
		// randomized order — well inside the per-interval budget.
		var st stream
		for j := 0; j < 60; j++ {
			item := int64(r*1000 + rng.Intn(40))
			st.items = append(st.items, item)
			st.weights = append(st.weights, int64(rng.Intn(500)+1))
		}
		if err := cw.UpdateWeightedBatch(st.items, st.weights); err != nil {
			t.Fatal(err)
		}
		history = append(history, st)
		check()
	}
}

// TestWindowedTopKMatchesFresh pins the acceptance criterion's exact
// shape: a window-scoped TopK over the last N intervals is
// byte-identical to a fresh sketch fed the same intervals' stream.
func TestWindowedTopKMatchesFresh(t *testing.T) {
	const k, intervals = 128, 3
	cw, _ := NewConcurrentWindowed[uint64](k, intervals)
	fresh, _ := New[uint64](k * intervals)
	// Interval 0 ages out; intervals 1..3 stay in scope.
	stale := []uint64{9, 9, 9, 8}
	cw.UpdateBatch(stale)
	for iv := 1; iv <= intervals; iv++ {
		cw.Rotate()
		var items []uint64
		var weights []int64
		for j := 0; j < 30; j++ {
			items = append(items, uint64(iv*100+j%17))
			weights = append(weights, int64(iv*j+1))
		}
		if err := cw.UpdateWeightedBatch(items, weights); err != nil {
			t.Fatal(err)
		}
		if err := fresh.UpdateWeightedBatch(items, weights); err != nil {
			t.Fatal(err)
		}
	}
	got := cw.Last(intervals).Query().Limit(25).Collect()
	want := fresh.Query().Limit(25).Collect()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windowed TopK diverges from fresh sketch\n got %v\nwant %v", got, want)
	}
	if cw.Estimate(9) != 0 {
		t.Fatal("expired interval leaked into the window")
	}
}

func TestWindowedRotateNoAllocsAfterWarmup(t *testing.T) {
	const k, intervals = 512, 8
	cw, err := NewConcurrentWindowed[uint64](k, intervals)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the ring: every slot sees traffic (growing its table), the
	// window wraps fully, and a query builds the merged view once.
	items := make([]uint64, 256)
	for i := range items {
		items[i] = uint64(i * 31)
	}
	for r := 0; r < 2*intervals; r++ {
		cw.UpdateBatch(items)
		cw.Rotate()
	}
	_ = cw.Query().Limit(4).Collect()
	if allocs := testing.AllocsPerRun(100, cw.Rotate); allocs != 0 {
		t.Fatalf("Rotate allocates after warm-up: %v allocs/op", allocs)
	}
}

func TestWindowedViewCache(t *testing.T) {
	cw, err := NewConcurrentWindowed[int64](64, 4)
	if err != nil {
		t.Fatal(err)
	}
	cw.UpdateOne(1)
	_ = cw.Query().Limit(2).Collect()
	base := cw.ViewMerges()
	_ = cw.Query().Limit(2).Collect()
	_ = cw.Estimate(1)
	_ = collectRows[int64](cw)
	if got := cw.ViewMerges(); got != base {
		t.Fatalf("repeated full-window reads re-merged: %d -> %d", base, got)
	}
	cw.UpdateOne(2)
	_ = cw.Query().Limit(2).Collect()
	if got := cw.ViewMerges(); got == base {
		t.Fatal("write did not invalidate the cached view")
	}
	base = cw.ViewMerges()
	cw.Rotate()
	_ = cw.Query().Limit(2).Collect()
	if got := cw.ViewMerges(); got == base {
		t.Fatal("rotation did not invalidate the cached view")
	}
	// Width-scoped reads share the cache per width.
	_ = cw.FrequentItemsAboveThresholdLast(2, 0, NoFalseNegatives)
	base = cw.ViewMerges()
	if _, err := cw.AppendBinaryLast(2, nil); err != nil {
		t.Fatal(err)
	}
	if got := cw.ViewMerges(); got != base {
		t.Fatalf("repeated width-2 reads re-merged: %d -> %d", base, got)
	}
}

func TestWindowedSerializeRoundTrip(t *testing.T) {
	cw, err := NewConcurrentWindowed[int64](64, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		for j := int64(0); j < 20; j++ {
			if err := cw.Update(int64(r)*100+j, j+1); err != nil {
				t.Fatal(err)
			}
		}
		if r < 4 {
			cw.Rotate()
		}
	}
	blob, err := cw.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Decode into a differently-shaped receiver: geometry comes from the
	// blob.
	got, err := NewConcurrentWindowed[int64](6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if got.Intervals() != cw.Intervals() || got.Rotations() != cw.Rotations() {
		t.Fatalf("geometry: got (%d, %d), want (%d, %d)",
			got.Intervals(), got.Rotations(), cw.Intervals(), cw.Rotations())
	}
	for w := 1; w <= cw.Intervals(); w++ {
		a, b := collectRows[int64](got.Last(w)), collectRows[int64](cw.Last(w))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("width %d rows diverge after round trip", w)
		}
	}
	// The decoded ring keeps rotating and ingesting.
	got.Rotate()
	cw.Rotate()
	got.UpdateOne(424242)
	cw.UpdateOne(424242)
	if !reflect.DeepEqual(collectRows[int64](got), collectRows[int64](cw)) {
		t.Fatal("rings diverge after post-decode writes")
	}
}

func TestWindowedUnmarshalRejectsCorrupt(t *testing.T) {
	cw, _ := NewConcurrentWindowed[int64](64, 2)
	cw.UpdateOne(1)
	before := collectRows[int64](cw)
	blob, err := cw.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte("XXXX"), blob[4:]...),
		"truncated": blob[:len(blob)-3],
		"trailing":  append(append([]byte{}, blob...), 0xFF),
	}
	for name, data := range cases {
		if err := cw.UnmarshalBinary(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
		if got := collectRows[int64](cw); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: rejected decode mutated the receiver", name)
		}
	}
}

// TestHugeHeaderDecodeAllocatesLittle: a 40-byte sketch header that
// claims a full lg-26 table (3·2^24 counters, 805 MB of body) with no
// body behind it, read by itself and as slot 0 of a 47-byte ring blob,
// must fail as a short read without sizing a buffer to the claim.
func TestHugeHeaderDecodeAllocatesLittle(t *testing.T) {
	header := binary.LittleEndian.AppendUint32(nil, 0x46495331) // "FIS1"
	header = append(header, 1, 0, 26, 0)                        // version, flags, lg 26, reserved
	header = binary.LittleEndian.AppendUint32(header, 1024)     // sample size
	header = binary.LittleEndian.AppendUint64(header, math.Float64bits(0.5))
	header = binary.LittleEndian.AppendUint64(header, 1<<40) // stream weight
	header = binary.LittleEndian.AppendUint64(header, 0)     // offset
	header = binary.LittleEndian.AppendUint32(header, 3<<24) // counters
	ring := append([]byte(windowedMagic+"\x01\x00\x00"), header...)
	if len(header) != 40 || len(ring) != 47 {
		t.Fatalf("inputs of %d and %d bytes, want 40 and 47", len(header), len(ring))
	}
	cw, err := NewConcurrentWindowed[int64](64, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func() error
		want   error
	}{
		{"core.ReadFromCount", func() error {
			_, _, err := core.ReadFromCount(bytes.NewReader(header))
			return err
		}, io.EOF},
		{"ConcurrentWindowed.UnmarshalBinary", func() error { return cw.UnmarshalBinary(ring) }, ErrCorrupt},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := c.decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, err, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s allocated %d bytes, want under 1 MB", c.name, grew)
		}
	}
}

// TestWindowedGenericBackend exercises the map-backed fallback: the ring
// works for any comparable item type, with the same expiry semantics.
func TestWindowedGenericBackend(t *testing.T) {
	cw, err := NewConcurrentWindowed[string](64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Update("alpha", 10); err != nil {
		t.Fatal(err)
	}
	cw.Rotate()
	if err := cw.Update("beta", 5); err != nil {
		t.Fatal(err)
	}
	if cw.Estimate("alpha") != 10 || cw.Estimate("beta") != 5 {
		t.Fatal("window estimates wrong on generic backend")
	}
	rows := cw.Query().Limit(2).Collect()
	if len(rows) != 2 || rows[0].Item != "alpha" {
		t.Fatalf("TopK: %v", rows)
	}
	cw.Rotate()
	if cw.Estimate("alpha") != 0 {
		t.Fatal("expired item survived rotation on generic backend")
	}
	if cw.Estimate("beta") != 5 {
		t.Fatal("in-scope item lost on generic backend")
	}
}

func TestConcurrentWindowedBasics(t *testing.T) {
	cw, err := NewConcurrentWindowed[int64](128, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Update(1, 10); err != nil {
		t.Fatal(err)
	}
	cw.UpdateOne(1)
	if err := cw.UpdateWeightedBatch([]int64{2, 3}, []int64{7, 5}); err != nil {
		t.Fatal(err)
	}
	if got := cw.Estimate(1); got != 11 {
		t.Fatalf("estimate=%d, want 11", got)
	}
	est, lb, ub := cw.EstimateLast(1, 2)
	if est != 7 || lb != 7 || ub != 7 {
		t.Fatalf("EstimateLast: (%d, %d, %d)", est, lb, ub)
	}
	if rows := cw.TopKLast(3, 2); len(rows) != 2 || rows[0].Item != 1 {
		t.Fatalf("TopKLast: %v", rows)
	}
	cw.Rotate()
	cw.Rotate()
	cw.Rotate()
	if got := cw.StreamWeight(); got != 0 {
		t.Fatalf("expired weight still counted: N=%d", got)
	}
	if got := cw.Rotations(); got != 3 {
		t.Fatalf("rotations=%d", got)
	}
	blob, err := cw.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWindowedRace is the rotation-under-load race test:
// writers and batch writers, point, row and snapshot readers, the codec
// and diagnostic methods, manual rotations and a StartRotating driver
// all hammering one window. Run with -race (CI does for ./freq/...).
func TestConcurrentWindowedRace(t *testing.T) {
	cw, err := NewConcurrentWindowed[uint64](256, 4)
	if err != nil {
		t.Fatal(err)
	}
	stop := cw.StartRotating(time.Millisecond)
	var wg sync.WaitGroup
	stopAt := time.Now().Add(150 * time.Millisecond)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]uint64, 64)
			for i := 0; time.Now().Before(stopAt); i++ {
				switch i % 3 {
				case 0:
					_ = cw.Update(uint64(g*1000+i%50), int64(i%7+1))
				case 1:
					cw.UpdateOne(uint64(g*1000 + i%50))
				case 2:
					for j := range batch {
						batch[j] = uint64(g*1000 + (i+j)%50)
					}
					cw.UpdateBatch(batch)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stopAt) {
			cw.Rotate()
			time.Sleep(time.Millisecond)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; time.Now().Before(stopAt); i++ {
				switch i % 12 {
				case 0:
					_ = cw.Estimate(uint64(i % 100))
				case 1:
					_ = cw.TopKLast(1+i%4, 5)
				case 2:
					_ = cw.FrequentItemsAboveThresholdLast(1+i%4, 10, NoFalseNegatives)
				case 3:
					n := 0
					for range cw.All() {
						n++
					}
				case 4:
					// A Last view is read outside the lock while the
					// writers go on.
					v := cw.Last(1 + i%4)
					for range v.All() {
					}
					_ = v.Estimate(uint64(i % 100))
				case 5:
					cw.SetSerDe(nil)
				case 6:
					buf, _ = cw.AppendBinary(buf[:0])
				case 7:
					_, _ = cw.WriteTo(io.Discard)
				case 8:
					_ = cw.NumActive()
				case 9:
					_ = cw.IntervalCounters()
				case 10:
					_ = cw.String()
				case 11:
					_, _, _ = cw.EstimateLast(1+i%4, uint64(i%100))
				}
			}
		}(g)
	}
	wg.Wait()
	stop()
}

// TestWindowedLastIsSnapshot: a Last view is an independent copy of
// the merged suffix, so its rows and bounds stay those of the moment it
// was taken through a later write, a rotation and reads at its own and
// at other widths, each of which rebuilds the window's cached merge.
func TestWindowedLastIsSnapshot(t *testing.T) {
	cw, err := NewConcurrentWindowed[int64](64, 3)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New[int64](64 * 3)
	if err != nil {
		t.Fatal(err)
	}
	for iv, updates := range [][][2]int64{{{1, 10}, {2, 5}}, {{1, 7}, {3, 4}}} {
		if iv > 0 {
			cw.Rotate()
		}
		for _, u := range updates {
			if err := cw.Update(u[0], u[1]); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Update(u[0], u[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	type state struct {
		rows              []Row[int64]
		err, weight       int64
		active            int
		est, lower, upper [5]int64
	}
	read := func(v *View[int64]) state {
		st := state{rows: collectRows[int64](v), err: v.MaximumError(), weight: v.StreamWeight(), active: v.NumActive()}
		for item := range int64(5) {
			st.est[item], st.lower[item], st.upper[item] = v.Estimate(item), v.LowerBound(item), v.UpperBound(item)
		}
		return st
	}
	v := cw.Last(2)
	want := read(v)
	if got := collectRows[int64](fresh); !reflect.DeepEqual(want.rows, got) {
		t.Fatalf("Last(2) rows %v, want the stream's %v", want.rows, got)
	}
	check := func(step string) {
		t.Helper()
		if got := read(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: Last(2) view changed\n got %+v\nwant %+v", step, got, want)
		}
	}
	if err := cw.Update(1, 100); err != nil {
		t.Fatal(err)
	}
	if got := cw.Last(2).Estimate(1); got != 117 {
		t.Fatalf("a new Last(2) after the write: estimate %d, want 117", got)
	}
	check("a write and a new Last(2)")
	cw.Rotate()
	_ = cw.Last(2)
	check("a rotation")
	_ = cw.FrequentItemsAboveThresholdLast(1, 0, NoFalseNegatives)
	_ = cw.Query().Collect()
	_ = cw.Last(3)
	check("reads at widths 1 and 3")
}

func TestConcurrentWindowedTicker(t *testing.T) {
	cw, err := NewConcurrentWindowed[int64](64, 4)
	if err != nil {
		t.Fatal(err)
	}
	stop := cw.StartRotating(2 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for cw.Rotations() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never rotated the window")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	after := cw.Rotations()
	time.Sleep(10 * time.Millisecond)
	if got := cw.Rotations(); got != after {
		t.Fatalf("window kept rotating after stop: %d -> %d", after, got)
	}
}

// recordingSink captures each retired slot's bounds and content summary
// — the test double for the durable store.
type recordingSink struct {
	bounds  [][2]time.Time
	weights []int64
	est7    []int64
	err     error
}

func (r *recordingSink) AppendSlot(v *View[int64], start, end time.Time) error {
	r.bounds = append(r.bounds, [2]time.Time{start, end})
	r.weights = append(r.weights, v.StreamWeight())
	r.est7 = append(r.est7, v.Estimate(7))
	return r.err
}

func TestRotationSink(t *testing.T) {
	cw, err := NewConcurrentWindowed[int64](64, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	sink := &recordingSink{}
	cw.SetRotationSink(sink, base)

	// Interval 1: some weight on item 7.
	cw.UpdateOne(7)
	cw.UpdateOne(7)
	cw.UpdateOne(9)
	cw.RotateAt(base.Add(time.Second))
	// Interval 2: empty — must NOT reach the sink.
	cw.RotateAt(base.Add(2 * time.Second))
	// Interval 3: different weight.
	if err := cw.Update(7, 5); err != nil {
		t.Fatal(err)
	}
	cw.RotateAt(base.Add(3 * time.Second))

	if err := cw.SinkErr(); err != nil {
		t.Fatal(err)
	}
	if len(sink.bounds) != 2 {
		t.Fatalf("sink saw %d slots, want 2 (empty interval skipped)", len(sink.bounds))
	}
	want := [][2]time.Time{
		{base, base.Add(time.Second)},
		// The empty interval advanced headStart, so the third interval
		// starts at its own boundary, not at the first's end.
		{base.Add(2 * time.Second), base.Add(3 * time.Second)},
	}
	for i, b := range sink.bounds {
		if !b[0].Equal(want[i][0]) || !b[1].Equal(want[i][1]) {
			t.Fatalf("slot %d bounds: got [%v, %v), want [%v, %v)", i, b[0], b[1], want[i][0], want[i][1])
		}
	}
	if sink.weights[0] != 3 || sink.est7[0] != 2 {
		t.Fatalf("slot 0 content: weight=%d est7=%d", sink.weights[0], sink.est7[0])
	}
	if sink.weights[1] != 5 || sink.est7[1] != 5 {
		t.Fatalf("slot 1 content: weight=%d est7=%d", sink.weights[1], sink.est7[1])
	}
	// The ring advanced on every RotateAt, sink or not.
	if cw.Rotations() != 3 {
		t.Fatalf("rotations: got %d, want 3", cw.Rotations())
	}
}

func TestRotationSinkError(t *testing.T) {
	cw, err := NewConcurrentWindowed[int64](64, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	boom := errors.New("disk full")
	cw.SetRotationSink(&recordingSink{err: boom}, base)
	cw.UpdateOne(1)
	cw.RotateAt(base.Add(time.Second))
	// The failure surfaces via SinkErr but never aborts the rotation.
	if !errors.Is(cw.SinkErr(), boom) {
		t.Fatalf("SinkErr: got %v, want %v", cw.SinkErr(), boom)
	}
	if cw.Rotations() != 1 {
		t.Fatalf("rotation aborted on sink error: %d rotations", cw.Rotations())
	}
	// Plain Rotate with a sink installed stamps real wall-clock bounds
	// (it routes through RotateAt).
	ok := &recordingSink{}
	cw.SetRotationSink(ok, time.Now())
	cw.UpdateOne(2)
	cw.Rotate()
	if len(ok.bounds) != 1 {
		t.Fatalf("Rotate with sink: saw %d slots, want 1", len(ok.bounds))
	}
	if !ok.bounds[0][1].After(ok.bounds[0][0]) {
		t.Fatalf("Rotate stamped an empty interval: %v", ok.bounds[0])
	}
}

// TestNextBoundary pins the wall-clock alignment rule StartRotating
// schedules by: the next boundary is strictly in the future and lies on
// a multiple of the interval.
func TestNextBoundary(t *testing.T) {
	interval := 10 * time.Second
	cases := []struct{ now, want time.Time }{
		{time.Unix(100, 0), time.Unix(110, 0)},           // exactly on a boundary -> next one
		{time.Unix(100, 1), time.Unix(110, 0)},           // just past a boundary
		{time.Unix(109, 999_999_999), time.Unix(110, 0)}, // just before
	}
	for _, c := range cases {
		if got := nextBoundary(c.now, interval); !got.Equal(c.want) {
			t.Fatalf("nextBoundary(%v, %v) = %v, want %v", c.now, interval, got, c.want)
		}
	}
	// Property: for any now, the result is in (now, now+interval] and
	// aligned.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		now := time.Unix(rng.Int63n(2_000_000_000), rng.Int63n(1_000_000_000))
		b := nextBoundary(now, interval)
		if !b.After(now) || b.Sub(now) > interval {
			t.Fatalf("nextBoundary(%v) = %v out of (now, now+interval]", now, b)
		}
		if !b.Truncate(interval).Equal(b) {
			t.Fatalf("nextBoundary(%v) = %v not aligned", now, b)
		}
	}
}

func TestStartRotatingRejectsBadInterval(t *testing.T) {
	cw, err := NewConcurrentWindowed[int64](64, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("StartRotating(0) did not panic")
		}
	}()
	cw.StartRotating(0)
}
