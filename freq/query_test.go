// Tests for the unified query layer: the Query builder's filtering,
// ordering, and pagination semantics, and deterministic tie ordering,
// on both backends.
package freq_test

import (
	"cmp"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/freq"
	"repro/internal/streamgen"
)

// queryFixture returns a sketch with a known exact state: items 0..9
// with weights 100, 90, ..., 10 — big enough budget that nothing is
// evicted and every estimate is exact.
func queryFixture(t *testing.T) *freq.Sketch[int64] {
	t.Helper()
	sk, err := freq.New[int64](256)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := sk.Update(i, (10-i)*10); err != nil {
			t.Fatal(err)
		}
	}
	return sk
}

func itemsOf(rows []freq.Row[int64]) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r.Item
	}
	return out
}

func TestQueryWhereThresholdSemantics(t *testing.T) {
	sk := queryFixture(t)
	// Exact state: threshold 50 keeps items with weight > 50, i.e.
	// weights 100..60 → items 0..4, under either semantics.
	for _, et := range []freq.ErrorType{freq.NoFalseNegatives, freq.NoFalsePositives} {
		rows := sk.Query().Where(50).WithErrorType(et).Collect()
		if got, want := itemsOf(rows), []int64{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
			t.Errorf("%v: Where(50) = %v, want %v", et, got, want)
		}
	}
	// Negative thresholds clamp to 0: all ten rows qualify.
	if got := sk.Query().Where(-5).Count(); got != 10 {
		t.Errorf("Where(-5) matched %d rows, want 10", got)
	}
}

// TestFrequentItemsSemantics checks the two error types of a threshold
// query against exact counts, on sketches small enough to decrement:
// under NoFalsePositives every returned item is truly above the
// threshold φ·N (φ = 0.05), and under NoFalseNegatives every item truly
// above it is returned.
func TestFrequentItemsSemantics(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		sk, err := freq.New[int64](48, freq.WithSeed(31), freq.WithoutGrowth())
		if err != nil {
			t.Fatal(err)
		}
		truth := map[int64]int64{}
		add := func(item, weight int64) {
			if err := sk.Update(item, weight); err != nil {
				t.Fatal(err)
			}
			truth[item] += weight
		}
		stream, err := streamgen.ZipfStream(0.8, 1<<12, 30_000, 10, 32)
		if err != nil {
			t.Fatal(err)
		}
		// Size the stream so the threshold is known up front: the heavy
		// items and the noise weigh w, and two probes of τ ± τ/50 with
		// τ = w/18 make N = w + 2τ, so N/20 = τ.
		w := int64(50_000 + 30_000 + 20_000)
		for _, u := range stream {
			w += u.Weight
		}
		tau := w / 18
		above, below := tau+tau/50, tau-tau/50
		add(1, 50_000)
		add(2, 30_000)
		add(3, 20_000)
		// Inserted before the noise, the probe above τ is decremented
		// until its lower bound falls under τ: only a NoFalseNegatives
		// filter on the upper bound still returns it.
		add(4, above)
		for _, u := range stream {
			add(u.Item+100, u.Weight) // clear of the heavy items and probes
		}
		// Inserted after the noise, the probe below τ carries the
		// accumulated offset in its upper bound, past τ: only a
		// NoFalsePositives filter on the lower bound still drops it.
		add(5, below)
		if lb, ub := sk.LowerBound(4), sk.UpperBound(5); lb >= tau || ub <= tau {
			t.Fatalf("probes do not straddle τ = %d (LowerBound(4) = %d, UpperBound(5) = %d), so they test neither filter", tau, lb, ub)
		}
		checkFrequentItems(t, sk, truth, 1)
	})
	t.Run("generic", func(t *testing.T) {
		sk, err := freq.New[string](8)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[string]int64{}
		add := func(item string, weight int64) {
			if err := sk.Update(item, weight); err != nil {
				t.Fatal(err)
			}
			truth[item] += weight
		}
		add("big", 10_000)
		add("mid", 3_000)
		rng := rand.New(rand.NewPCG(6, 6))
		for range 5000 {
			add("n"+strconv.Itoa(rng.IntN(500)), int64(rng.IntN(5)+1))
		}
		checkFrequentItems(t, sk, truth, "big")
	})
}

// checkFrequentItems runs both error types' threshold queries and the
// top-1 query against the exact counts in truth.
func checkFrequentItems[T comparable](t *testing.T, sk *freq.Sketch[T], truth map[T]int64, heaviest T) {
	t.Helper()
	if sk.MaximumError() == 0 {
		t.Fatal("the sketch never decremented, so its bounds are exact and prove nothing")
	}
	var n int64
	for _, f := range truth {
		n += f
	}
	threshold := n / 20
	for _, r := range sk.Query().Where(threshold).WithErrorType(freq.NoFalsePositives).Collect() {
		if truth[r.Item] <= threshold {
			t.Errorf("NoFalsePositives returned %v with truth %d <= threshold %d", r.Item, truth[r.Item], threshold)
		}
	}
	returned := map[T]bool{}
	for _, r := range sk.Query().Where(threshold).WithErrorType(freq.NoFalseNegatives).Collect() {
		returned[r.Item] = true
	}
	for item, f := range truth {
		if f > threshold && !returned[item] {
			t.Errorf("NoFalseNegatives missed %v with truth %d > threshold %d", item, f, threshold)
		}
	}
	if top := sk.Query().Limit(1).Collect(); len(top) != 1 || top[0].Item != heaviest {
		t.Errorf("Limit(1) = %v, want %v first", top, heaviest)
	}
}

func TestQueryOrderLimitOffset(t *testing.T) {
	sk := queryFixture(t)

	top3 := sk.Query().Limit(3).Collect()
	if got, want := itemsOf(top3), []int64{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("Limit(3) = %v, want %v", got, want)
	}

	page2 := sk.Query().Offset(3).Limit(3).Collect()
	if got, want := itemsOf(page2), []int64{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("Offset(3).Limit(3) = %v, want %v", got, want)
	}

	asc := sk.Query().OrderBy(freq.OrderEstimateAsc).Limit(2).Collect()
	if got, want := itemsOf(asc), []int64{9, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("OrderEstimateAsc.Limit(2) = %v, want %v", got, want)
	}

	byItem := sk.Query().OrderBy(freq.OrderItem).Collect()
	if got, want := itemsOf(byItem), []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("OrderItem = %v, want %v", got, want)
	}

	// Offset past the end is empty, not a panic.
	if got := sk.Query().Offset(99).Count(); got != 0 {
		t.Errorf("Offset(99) matched %d rows, want 0", got)
	}
}

func TestQueryWhereFuncAndStreamPath(t *testing.T) {
	sk := queryFixture(t)
	even := func(r freq.Row[int64]) bool { return r.Item%2 == 0 }

	ordered := sk.Query().WhereFunc(even).Collect()
	if got, want := itemsOf(ordered), []int64{0, 2, 4, 6, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("WhereFunc(even) = %v, want %v", got, want)
	}

	// OrderNone streams without materializing; same row set, any order.
	seen := map[int64]bool{}
	n := 0
	for item, row := range sk.Query().WhereFunc(even).OrderBy(freq.OrderNone).All() {
		if item != row.Item {
			t.Fatalf("All yielded key %d for row %v", item, row)
		}
		seen[item] = true
		n++
	}
	if n != 5 || !seen[0] || !seen[8] {
		t.Errorf("streamed rows = %v", seen)
	}

	// Limit bounds the streamed path too.
	if got := sk.Query().OrderBy(freq.OrderNone).Limit(2).Count(); got != 2 {
		t.Errorf("OrderNone.Limit(2) streamed %d rows, want 2", got)
	}

	// Early break stops the iterator cleanly.
	n = 0
	for range sk.Query().Rows() {
		n++
		if n == 4 {
			break
		}
	}
	if n != 4 {
		t.Errorf("broke after %d rows", n)
	}
}

// TestQueryTieOrderingDeterministic pins the tie-break contract: equal
// estimates order by ascending item, identically on every run and on
// both backends, so Limit cuts at a deterministic boundary.
func TestQueryTieOrderingDeterministic(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		sk, err := freq.New[int64](256)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(9); i >= 0; i-- { // insert high-to-low to fight insertion order
			if err := sk.Update(i, 7); err != nil {
				t.Fatal(err)
			}
		}
		want := []int64{0, 1, 2, 3, 4}
		for trial := 0; trial < 5; trial++ {
			if got := itemsOf(sk.Query().Limit(5).Collect()); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Limit(5) = %v, want %v", trial, got, want)
			}
		}
	})
	t.Run("generic", func(t *testing.T) {
		sk, err := freq.New[string](256)
		if err != nil {
			t.Fatal(err)
		}
		for _, item := range []string{"delta", "alpha", "echo", "charlie", "bravo"} {
			if err := sk.Update(item, 7); err != nil {
				t.Fatal(err)
			}
		}
		want := []string{"alpha", "bravo", "charlie"}
		for trial := 0; trial < 5; trial++ {
			rows := sk.Query().Limit(3).Collect()
			got := make([]string, len(rows))
			for i, r := range rows {
				got[i] = r.Item
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Limit(3) = %v, want %v (map order must not leak)", trial, got, want)
			}
		}
	})
	t.Run("custom-order-ties", func(t *testing.T) {
		sk, err := freq.New[int64](256)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 6; i++ {
			if err := sk.Update(i, 7); err != nil {
				t.Fatal(err)
			}
		}
		// A comparator that distinguishes nothing still yields item order.
		rows := sk.Query().OrderByFunc(func(a, b freq.Row[int64]) int { return 0 }).Collect()
		if got, want := itemsOf(rows), []int64{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
			t.Errorf("constant comparator = %v, want item order %v", got, want)
		}
	})
}

// TestSignedQueryParity exercises the turnstile front-end's new batch
// and query surface: batch ingest equals the loop, deletions subtract,
// and the Queryable methods answer signed values.
func TestSignedQueryParity(t *testing.T) {
	loop, err := freq.NewSigned[int64](128)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := freq.NewSigned[int64](128)
	if err != nil {
		t.Fatal(err)
	}
	items := []int64{1, 2, 3, 1, 2, 1, 4}
	weights := []int64{10, 20, 30, -5, 0, 7, -40}
	for i := range items {
		loop.Update(items[i], weights[i])
	}
	if err := batched.UpdateWeightedBatch(items, weights); err != nil {
		t.Fatal(err)
	}
	for _, item := range []int64{1, 2, 3, 4, 99} {
		if l, b := loop.Estimate(item), batched.Estimate(item); l != b {
			t.Errorf("item %d: loop estimate %d, batch estimate %d", item, l, b)
		}
	}
	if got, want := batched.Estimate(1), int64(12); got != want {
		t.Errorf("Estimate(1) = %d, want %d", got, want)
	}
	if got, want := batched.NetWeight(), int64(10+20+30-5+7-40); got != want {
		t.Errorf("NetWeight = %d, want %d", got, want)
	}
	if batched.StreamWeight() != batched.NetWeight() {
		t.Error("StreamWeight != NetWeight")
	}
	if err := batched.UpdateWeightedBatch([]int64{1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	// MinInt64's magnitude is unrepresentable: all-or-nothing rejection.
	before := batched.Estimate(1)
	if err := batched.UpdateWeightedBatch([]int64{1, 2}, []int64{5, math.MinInt64}); !errors.Is(err, freq.ErrNegativeWeight) {
		t.Errorf("MinInt64 batch = %v, want ErrNegativeWeight", err)
	}
	if got := batched.Estimate(1); got != before {
		t.Errorf("rejected batch applied updates: Estimate(1) %d -> %d", before, got)
	}

	// Unit-weight batch parity.
	ub, err := freq.NewSigned[int64](128)
	if err != nil {
		t.Fatal(err)
	}
	ub.UpdateBatch([]int64{5, 5, 6})
	if got := ub.Estimate(5); got != 2 {
		t.Errorf("after UpdateBatch Estimate(5) = %d, want 2", got)
	}

	// Query over a Signed summary: top items by signed estimate.
	rows := batched.Query().Limit(2).Collect()
	if len(rows) != 2 || rows[0].Item != 3 || rows[1].Item != 2 {
		t.Errorf("Signed Limit(2) = %v", rows)
	}
	// Item 4 went net negative (-40): it must not outrank positives, and
	// a threshold query must exclude it.
	for _, r := range batched.Query().Where(0).WithErrorType(freq.NoFalsePositives).Collect() {
		if r.Item == 4 {
			t.Error("net-negative item cleared a positive threshold")
		}
	}
}

// TestQuerySelectionMatchesFullSort pins the bounded selection behind
// every limited ordered query to the full sort: on random sketches
// thick with equal estimates, each ordering, filter and page returns
// exactly what materializing, sorting and paging every row returns.
func TestQuerySelectionMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	fast, err := freq.New[int64](256, freq.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	generic, err := freq.New[string](256)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := freq.NewSigned[int64](256, freq.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	for range 20000 {
		item, w := rng.Int64N(3000), 1+rng.Int64N(3)
		if err := fast.Update(item, w); err != nil {
			t.Fatal(err)
		}
		if err := generic.Update(strconv.FormatInt(item, 10), w); err != nil {
			t.Fatal(err)
		}
		if rng.IntN(4) == 0 {
			w = -w
		}
		signed.Update(item, w)
	}
	checkSelection(t, "fast", fast, func(r freq.Row[int64]) bool { return r.Item%3 != 0 })
	checkSelection(t, "generic", generic, func(r freq.Row[string]) bool { return len(r.Item)%2 == 0 })
	checkSelection(t, "signed", signed, func(r freq.Row[int64]) bool { return r.Item%3 != 0 })
}

func checkSelection[T cmp.Ordered](t *testing.T, name string, src freq.Queryable[T], pred func(freq.Row[T]) bool) {
	t.Helper()
	var all []freq.Row[T]
	estimates := map[int64]bool{}
	for _, r := range src.All() {
		all = append(all, r)
		estimates[r.Estimate] = true
	}
	n := len(all)
	if n < 100 || len(estimates) > n/4 {
		t.Fatalf("%s: %d rows with %d distinct estimates: too few ties to test", name, n, len(estimates))
	}
	slices.SortFunc(all, func(a, b freq.Row[T]) int { return cmp.Compare(a.Estimate, b.Estimate) })
	threshold := all[n/2].Estimate

	byItem := func(a, b freq.Row[T]) int { return cmp.Compare(a.Item, b.Item) }
	band := func(a, b freq.Row[T]) int {
		return cmp.Compare(b.UpperBound-b.LowerBound, a.UpperBound-a.LowerBound)
	}
	orders := []struct {
		name string
		set  func(*freq.Query[T]) *freq.Query[T]
		cmp  func(a, b freq.Row[T]) int // nil: source order
	}{
		{"desc", func(q *freq.Query[T]) *freq.Query[T] { return q.OrderBy(freq.OrderEstimateDesc) },
			func(a, b freq.Row[T]) int { return cmp.Compare(b.Estimate, a.Estimate) }},
		{"asc", func(q *freq.Query[T]) *freq.Query[T] { return q.OrderBy(freq.OrderEstimateAsc) },
			func(a, b freq.Row[T]) int { return cmp.Compare(a.Estimate, b.Estimate) }},
		{"item", func(q *freq.Query[T]) *freq.Query[T] { return q.OrderBy(freq.OrderItem) },
			func(a, b freq.Row[T]) int { return 0 }},
		{"func", func(q *freq.Query[T]) *freq.Query[T] { return q.OrderByFunc(band) }, band},
		{"none", func(q *freq.Query[T]) *freq.Query[T] { return q.OrderBy(freq.OrderNone) }, nil},
	}
	filters := []struct {
		name string
		set  func(*freq.Query[T]) *freq.Query[T]
		keep func(freq.Row[T]) bool
	}{
		{"all", func(q *freq.Query[T]) *freq.Query[T] { return q }, func(freq.Row[T]) bool { return true }},
		{"where", func(q *freq.Query[T]) *freq.Query[T] { return q.Where(threshold) },
			func(r freq.Row[T]) bool { return r.UpperBound > threshold }},
		{"wherefunc", func(q *freq.Query[T]) *freq.Query[T] { return q.WhereFunc(pred) }, pred},
	}
	for _, o := range orders {
		for _, f := range filters {
			var matched []freq.Row[T]
			for _, r := range all {
				if f.keep(r) {
					matched = append(matched, r)
				}
			}
			if o.cmp != nil {
				slices.SortFunc(matched, func(a, b freq.Row[T]) int {
					if c := o.cmp(a, b); c != 0 {
						return c
					}
					return byItem(a, b)
				})
			}
			for _, off := range []int{0, 1, 7, n - 1, n, n + 5} {
				for _, lim := range []int{0, 1, 64, n, n + 1, math.MaxInt} {
					want := matched[min(off, len(matched)):]
					want = want[:min(lim, len(want))]
					got := f.set(o.set(freq.From(src))).Offset(off).Limit(lim).Collect()
					if o.cmp != nil {
						if !slices.Equal(got, want) {
							t.Errorf("%s %s/%s Offset(%d).Limit(%d): got %d rows %v, want %d rows %v",
								name, o.name, f.name, off, lim, len(got), got, len(want), want)
						}
						continue
					}
					// Source order is unspecified: the page must be as long
					// as the reference's and hold distinct matching rows.
					seen := map[T]bool{}
					for _, r := range got {
						if seen[r.Item] || !f.keep(r) {
							t.Errorf("%s none/%s Offset(%d).Limit(%d): stray or repeated row %v", name, f.name, off, lim, r)
						}
						seen[r.Item] = true
					}
					if len(got) != len(want) {
						t.Errorf("%s none/%s Offset(%d).Limit(%d): %d rows, want %d", name, f.name, off, lim, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestTopKAllocatesOnlyTheSelection checks that a limited query holds
// only the rows it may return: Limit(64) on a full 16k-counter sketch
// allocates a few kilobytes, not a copy of every counter.
func TestTopKAllocatesOnlyTheSelection(t *testing.T) {
	sk, err := freq.New[int64](16384, freq.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range int64(16384) {
		if err := sk.Update(i*7919, 1+i%5); err != nil {
			t.Fatal(err)
		}
	}
	if sk.NumActive() != 16384 {
		t.Fatalf("sketch holds %d counters, want 16384", sk.NumActive())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if rows := sk.Query().Limit(64).Collect(); len(rows) != 64 {
			t.Fatalf("Limit(64) returned %d rows", len(rows))
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= 64<<10 {
		t.Errorf("Limit(64) over %d counters allocated %d bytes per call, want under 64 KiB", sk.NumActive(), perCall)
	}
}
