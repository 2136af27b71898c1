// Window ranking tests: TopKLast and EstimateLast against the merged
// view they replace, on seeded windows of every shape the certificate
// treats differently, plus the view budget both rest on.
package freq

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/streamgen"
	"repro/internal/xrand"
)

// TestWindowedViewBudget: a full window must fit its merged view
// without a decrement. At k = 4096 a fast-path slot holds up to 6,143
// counters, so three slots of distinct unit items overflowed a view
// sized k·intervals.
func TestWindowedViewBudget(t *testing.T) {
	const k, intervals = 4096, 3
	cw, err := NewConcurrentWindowed[int64](k, intervals, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var item int64
	for r := range intervals {
		for range 3 * k {
			cw.UpdateOne(item)
			item++
		}
		if r < intervals-1 {
			cw.Rotate()
		}
	}
	var errSum int64
	active := 0
	for _, s := range cw.slots {
		errSum += s.MaximumError()
		active += s.NumActive()
	}
	v := cw.merged(intervals)
	if v.MaximumError() != errSum || v.NumActive() != active {
		t.Fatalf("merged(%d): error %d over %d counters, want the slots' %d over %d",
			intervals, v.MaximumError(), v.NumActive(), errSum, active)
	}
}

// windowShape is one seeded window of the ranking differential: next
// draws interval r's next update.
type windowShape[T comparable] struct {
	name     string
	budget   int
	perSlot  int
	next     func(rng *xrand.SplitMix64, z *streamgen.Zipf, r int) (T, int64)
	probeFor func(i int) T
}

// zipfOrDie returns a Zipf(1.1) rank sampler over n ranks.
func zipfOrDie(t testing.TB, n int, seed uint64) *streamgen.Zipf {
	z, err := streamgen.NewZipf(1.1, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// fillWindow writes intervals+2 intervals of perSlot updates each, so
// the ring wraps, and leaves the head half full.
func fillWindow[T comparable](t testing.TB, cw *ConcurrentWindowed[T], perSlot int, next func(r int) (T, int64)) {
	n := cw.Intervals()
	for r := range n + 2 {
		m := perSlot
		if r == n+1 {
			m = perSlot / 2
		}
		for range m {
			item, w := next(r)
			if err := cw.Update(item, w); err != nil {
				t.Fatal(err)
			}
		}
		if r <= n {
			cw.Rotate()
		}
	}
}

// certified reports whether TopKLast answered without merging: the
// view cache is dropped first, so the merge path always counts merges.
func certified[T comparable](cw *ConcurrentWindowed[T], w, k int) ([]Row[T], bool) {
	cw.viewWidth = 0
	before := cw.viewMerges
	rows := cw.TopKLast(w, k)
	return rows, cw.viewMerges == before
}

// checkWindowRanks compares TopKLast with a full scan of the merged
// view merged(w), and EstimateLast with its lookups, at every width
// 1..N+1 and k in {0, 1, 2, 64, more than the distinct items, MaxInt},
// counting the certified answers and the merges in paths.
func checkWindowRanks[T comparable](t testing.TB, name string, cw *ConcurrentWindowed[T], probes []T, paths *[2]int) {
	n := cw.Intervals()
	distinct := cw.merged(n).NumActive()
	for w := 1; w <= n+1; w++ {
		for _, k := range []int{0, 1, 2, 64, distinct + 1, math.MaxInt} {
			got, ok := certified(cw, w, k)
			if ok {
				paths[0]++
			} else {
				paths[1]++
			}
			want := scanPage[T](cw.merged(w), 0, k)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: TopKLast(%d, %d) (certified %v):\n got %v\nwant %v", name, w, k, ok, got, want)
			}
		}
		v := cw.merged(w)
		for _, item := range probes {
			est, lb, ub := cw.EstimateLast(w, item)
			if est != v.Estimate(item) || lb != v.LowerBound(item) || ub != v.UpperBound(item) {
				t.Fatalf("%s: EstimateLast(%d, %v) = (%d, %d, %d), merged view (%d, %d, %d)", name, w, item,
					est, lb, ub, v.Estimate(item), v.LowerBound(item), v.UpperBound(item))
			}
		}
	}
}

// runWindowShapes builds each shape at a few seeds and widths and runs
// the differential on it, again after a rotation between writes (the
// sealed slots' cached lists must follow the ring), after a Reset and
// refill, and after decoding the rotated ring over it.
func runWindowShapes[T comparable](t *testing.T, shapes []windowShape[T], paths *[2]int) {
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			intervals := 2 + int(seed)
			name := fmt.Sprintf("%s/seed=%d/N=%d", sh.name, seed, intervals)
			cw, err := NewConcurrentWindowed[T](sh.budget, intervals, WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			rng := xrand.NewSplitMix64(seed)
			z := zipfOrDie(t, 50_000, seed)
			next := func(r int) (T, int64) { return sh.next(&rng, z, r) }
			var probes []T
			for i := range 64 {
				probes = append(probes, sh.probeFor(i))
			}
			fillWindow(t, cw, sh.perSlot, next)
			checkWindowRanks(t, name, cw, probes, paths)
			for r := range 2 {
				for range sh.perSlot / 4 {
					item, w := next(intervals + 2 + r)
					if err := cw.Update(item, w); err != nil {
						t.Fatal(err)
					}
				}
				if r == 0 {
					cw.Rotate()
				}
			}
			checkWindowRanks(t, name+"/rotated", cw, probes, paths)
			blob, err := cw.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			cw.Reset()
			fillWindow(t, cw, sh.perSlot, next)
			checkWindowRanks(t, name+"/reset", cw, probes, paths)
			if err := cw.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			checkWindowRanks(t, name+"/decoded", cw, probes, paths)
		}
	}
}

// TestWindowTopKMatchesMergedView is the ranking differential: on
// skewed, flat, per-slot disjoint, tied, negative-id, high-bit uint64
// and string windows, TopKLast's rows and EstimateLast's triples equal
// the merged view's, and both the certified path and the merge run.
func TestWindowTopKMatchesMergedView(t *testing.T) {
	var paths [2]int
	rank := func(z *streamgen.Zipf) int64 { return int64(z.Next()) }
	runWindowShapes(t, []windowShape[int64]{
		{"skewed", 4096, 30_000, func(rng *xrand.SplitMix64, z *streamgen.Zipf, _ int) (int64, int64) {
			return rank(z), 1 + int64(rng.Uint64n(100))
		}, func(i int) int64 { return int64(i * 7) }},
		{"flat", 1024, 20_000, func(rng *xrand.SplitMix64, _ *streamgen.Zipf, _ int) (int64, int64) {
			return int64(rng.Uint64n(40_000)), 1 + int64(rng.Uint64n(100))
		}, func(i int) int64 { return int64(i * 13) }},
		{"disjoint", 1024, 8_000, func(rng *xrand.SplitMix64, z *streamgen.Zipf, r int) (int64, int64) {
			return int64(r)<<32 | rank(z), 1 + int64(rng.Uint64n(10))
		}, func(i int) int64 { return int64(i%4)<<32 | int64(i/4) }},
		{"unit-ties", 512, 6_000, func(rng *xrand.SplitMix64, _ *streamgen.Zipf, _ int) (int64, int64) {
			return int64(rng.Uint64n(1_500)), 1
		}, func(i int) int64 { return int64(i * 23) }},
		{"negative", 1024, 10_000, func(_ *xrand.SplitMix64, z *streamgen.Zipf, _ int) (int64, int64) {
			return 3 - rank(z), 1
		}, func(i int) int64 { return 3 - int64(i) }},
	}, &paths)
	runWindowShapes(t, []windowShape[uint64]{
		{"uint64-high-bit", 1024, 10_000, func(_ *xrand.SplitMix64, z *streamgen.Zipf, _ int) (uint64, int64) {
			r := uint64(z.Next())
			return r>>1 | r<<63, 1
		}, func(i int) uint64 { return uint64(i)>>1 | uint64(i)<<63 }},
	}, &paths)
	runWindowShapes(t, []windowShape[string]{
		{"string", 1024, 10_000, func(rng *xrand.SplitMix64, z *streamgen.Zipf, _ int) (string, int64) {
			return fmt.Sprintf("i%d", z.Next()), 1 + int64(rng.Uint64n(3))
		}, func(i int) string { return fmt.Sprintf("i%d", i) }},
	}, &paths)
	t.Logf("%d certified answers, %d merges", paths[0], paths[1])
	if paths[0] == 0 || paths[1] == 0 {
		t.Fatalf("paths not both exercised: %d certified, %d merged", paths[0], paths[1])
	}
}

// TestWindowTopKPartlyListedItem: the top item is listed by one slot
// only, so its listed counters (100) sum below θ (q's 110); it ranks
// through its upper bound, 100 plus the other slots' cuts of 10 each,
// and its exact count 118.
func TestWindowTopKPartlyListedItem(t *testing.T) {
	cw, err := NewConcurrentWindowed[int64](64, 3, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	const y, q, r = 1000, 1001, 1002
	for slot, counts := range []map[int64]int64{
		{y: 100},
		{q: 55, r: 10, y: 9},
		{q: 55, r + 1: 10, y: 9},
	} {
		for item, c := range counts {
			if err := cw.Update(item, c); err != nil {
				t.Fatal(err)
			}
		}
		for f := range int64(40) { // unit fillers keep the lists a small share
			cw.UpdateOne(int64(slot)*100 + f)
		}
		if slot < 2 {
			cw.Rotate()
		}
	}
	got, ok := certified(cw, 3, 1)
	if want := scanPage[int64](cw.merged(3), 0, 1); !ok || !slices.Equal(got, want) || got[0].Item != y {
		t.Fatalf("TopKLast(3, 1) = %v (certified %v), merged view %v, want item %d first", got, ok, want, y)
	}
}

// TestWindowTopKFollowsTheRing pins when a slot's cached list must be
// taken again: the heavy items change from step to step, so a stale
// list ranks the wrong ones. The head is read fresh every time, a slot
// recycled by a rotation and sealed by the next is read fresh although
// no read saw it as the head, and Reset and UnmarshalBinary drop every
// list.
func TestWindowTopKFollowsTheRing(t *testing.T) {
	cw, err := NewConcurrentWindowed[int64](256, 3, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	filler := int64(1 << 40)
	fill := func(heavy []int64, w int64) { // plus 150 unit fillers new to the window
		for _, h := range heavy {
			if err := cw.Update(h, w); err != nil {
				t.Fatal(err)
			}
		}
		for range 150 {
			cw.UpdateOne(filler)
			filler++
		}
	}
	check := func(step string, want ...int64) {
		t.Helper()
		got, ok := certified(cw, 3, 2)
		merged := scanPage[int64](cw.merged(3), 0, 2)
		if !ok || !slices.Equal(got, merged) || got[0].Item != want[0] || got[1].Item != want[1] {
			t.Fatalf("%s: TopKLast(3, 2) = %v (certified %v), merged view %v, want items %v", step, got, ok, merged, want)
		}
	}
	a, b, c, d := []int64{1, 2}, []int64{3, 4}, []int64{5, 6}, []int64{7, 8}
	for i := range 3 {
		fill(a, 100)
		if i < 2 {
			cw.Rotate()
		}
	}
	check("filled", 1, 2)
	cw.Rotate()
	fill(b, 60)
	cw.Rotate()
	fill(b, 60)
	check("rotated twice", 3, 4) // a 100, b 120
	fill(c, 500)
	check("head written", 5, 6)
	blob, err := cw.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cw.Reset()
	fill(d, 40)
	cw.Rotate()
	fill(d, 40)
	check("reset", 7, 8) // d 80; the third slot is empty
	if err := cw.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	check("decoded", 5, 6)
}

// FuzzWindowTopK runs the ranking differential over fuzzed streams,
// widths and k: a seeded stream over a fuzzed universe and weight
// range, and small slots so that small k certify.
func FuzzWindowTopK(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint16(600), uint16(5000), uint8(1), 2, 1)
	f.Add(uint64(2), uint8(1), uint16(2000), uint16(300), uint8(0), 1, 2)
	f.Add(uint64(3), uint8(4), uint16(900), uint16(64), uint8(9), 7, 3)
	f.Add(uint64(4), uint8(2), uint16(50), uint16(1), uint8(200), 0, -1)
	f.Fuzz(func(t *testing.T, seed uint64, slots uint8, perSlot, universe uint16, maxWeight uint8, w, k int) {
		intervals := 1 + int(slots%5)
		cw, err := NewConcurrentWindowed[int64](64, intervals, WithSeed(seed|1))
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.NewSplitMix64(seed)
		u := 1 + uint64(universe)
		next := func(int) (int64, int64) {
			// The nested draw skews the stream toward small items.
			return int64(rng.Uint64n(1 + rng.Uint64n(u))), 1 + int64(rng.Uint64n(1+uint64(maxWeight)))
		}
		fillWindow(t, cw, int(perSlot%2048), next)
		for round := range 2 {
			for _, k := range []int{k, k % 8, 1} {
				got := cw.TopKLast(w, k)
				if want := scanPage[int64](cw.merged(w), 0, k); !slices.Equal(got, want) {
					t.Fatalf("round %d: TopKLast(%d, %d):\n got %v\nwant %v", round, w, k, got, want)
				}
			}
			v := cw.merged(w)
			for item := range int64(8) {
				est, lb, ub := cw.EstimateLast(w, item)
				if est != v.Estimate(item) || lb != v.LowerBound(item) || ub != v.UpperBound(item) {
					t.Fatalf("round %d: EstimateLast(%d, %d) = (%d, %d, %d), merged view (%d, %d, %d)", round, w, item,
						est, lb, ub, v.Estimate(item), v.LowerBound(item), v.UpperBound(item))
				}
			}
			// Round 1 reads after a rotation and a head's worth of writes.
			cw.Rotate()
			for range perSlot % 2048 {
				item, weight := next(0)
				if err := cw.Update(item, weight); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
