// Ranking tests: a limited query in the default order over a
// Concurrent, which ranks from each shard's largest counters when they
// hold the top rows, and over a single Sketch or View, which ranks from
// its own, against a full scan of every row, on seeded sketches of every
// shape the two paths treat differently.
package freq

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/streamgen"
	"repro/internal/xrand"
)

// topKShape is one seeded stream of the ranking differential: next
// draws the i-th update.
type topKShape[T comparable] struct {
	name   string
	budget int
	n      int
	next   func(rng *xrand.SplitMix64, z *streamgen.Zipf, i int) (T, int64)
}

// listedRead runs q over c after a zero-weight update, which changes no
// counter but drops the cached view, and reports whether the read was
// answered without merging it.
func listedRead[T comparable](t testing.TB, c *Concurrent[T], probe T, q func(*Query[T]) *Query[T]) ([]Row[T], bool) {
	t.Helper()
	if err := c.Update(probe, 0); err != nil {
		t.Fatal(err)
	}
	before := c.ViewMerges()
	rows := q(c.Query()).Collect()
	return rows, c.ViewMerges() == before
}

// checkConcurrentRanks compares Offset(o).Limit(k) over c with the same
// page of a full scan of c.View() for k in {1, 2, 64, NumActive,
// NumActive+1, MaxInt} and o in {0, 1, 7}, counting the listed answers
// and the view scans in paths.
func checkConcurrentRanks[T comparable](t testing.TB, name string, c *Concurrent[T], probe T, paths *[2]int) {
	t.Helper()
	v, err := c.View()
	if err != nil {
		t.Fatal(err)
	}
	active := v.NumActive()
	for _, k := range []int{1, 2, 64, active, active + 1, math.MaxInt} {
		for _, o := range []int{0, 1, 7} {
			page := func(q *Query[T]) *Query[T] { return q.Offset(o).Limit(k) }
			got, listed := listedRead(t, c, probe, page)
			if listed {
				paths[0]++
			} else {
				paths[1]++
			}
			v, err := c.View()
			if err != nil {
				t.Fatal(err)
			}
			if want := scanPage[T](v, o, k); !slices.Equal(got, want) {
				t.Fatalf("%s: Offset(%d).Limit(%d) (listed %v):\n got %v\nwant %v", name, o, k, listed, got, want)
			}
		}
	}
}

// scanPage is the reference every listed top k is checked against:
// every row of src, sorted by descending estimate with ties by item,
// then paged as Offset(o).Limit(k) pages. It reads src.All(), so it
// never takes the listed path it checks.
func scanPage[T comparable](src rowSource[T], o, k int) []Row[T] {
	var rows []Row[T]
	for _, r := range src.All() {
		rows = append(rows, r)
	}
	slices.SortFunc(rows, func(a, b Row[T]) int {
		if c := cmp.Compare(b.Estimate, a.Estimate); c != 0 {
			return c
		}
		return itemCompare(a.Item, b.Item)
	})
	rows = rows[min(max(o, 0), len(rows)):]
	if k >= 0 && k < len(rows) {
		rows = rows[:k]
	}
	return rows
}

// runTopKShapes builds each shape over 1, 2 and 8 shards, with and
// without WithoutGrowth, at two seeds, and runs the differential on it
// full, after a further quarter of the stream, and after a Reset and a
// refill, counting each shape's listed answers and view scans in
// paths[shape name].
func runTopKShapes[T comparable](t *testing.T, shapes []topKShape[T], probe T, paths map[string]*[2]int) {
	for _, sh := range shapes {
		counts := new([2]int)
		paths[sh.name] = counts
		for _, shards := range []int{1, 2, 8} {
			for _, growth := range []bool{true, false} {
				for seed := uint64(1); seed <= 2; seed++ {
					name := fmt.Sprintf("%s/shards=%d/growth=%v/seed=%d", sh.name, shards, growth, seed)
					opts := []Option{WithShards(shards), WithSeed(seed)}
					if !growth {
						opts = append(opts, WithoutGrowth())
					}
					c, err := NewConcurrent[T](sh.budget, opts...)
					if err != nil {
						t.Fatal(err)
					}
					rng := xrand.NewSplitMix64(seed)
					z := zipfOrDie(t, 50_000, seed)
					fill := func(from, to int) {
						for i := from; i < to; i++ {
							item, w := sh.next(&rng, z, i)
							if err := c.Update(item, w); err != nil {
								t.Fatal(err)
							}
						}
					}
					fill(0, sh.n)
					checkConcurrentRanks(t, name, c, probe, counts)
					fill(sh.n, sh.n+sh.n/4)
					checkConcurrentRanks(t, name+"/more", c, probe, counts)
					c.Reset()
					fill(0, sh.n/2)
					checkConcurrentRanks(t, name+"/reset", c, probe, counts)
				}
			}
		}
	}
}

// TestConcurrentTopKMatchesView is the ranking differential: on a
// skewed packet trace, flat unit weights, counts that tie exactly at a
// shard's cut, negative ids, uint64 ids at or above 2^63 (ranked
// unsigned) and string items (the generic backend), a limited
// Concurrent query returns the view's rows. Both the listed path and the
// view scan run, and the string shape lists too: the generic backend
// ranks from its shards' largest counters like the int64 one.
func TestConcurrentTopKMatchesView(t *testing.T) {
	trace, err := streamgen.PacketTrace(streamgen.TraceConfig{Packets: 20_000, DistinctSources: 8_000, Alpha: 1.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]*[2]int{}
	rank := func(z *streamgen.Zipf) int64 { return int64(z.Next()) }
	runTopKShapes(t, []topKShape[int64]{
		{"packet-trace", 512, 16_000, func(_ *xrand.SplitMix64, _ *streamgen.Zipf, i int) (int64, int64) {
			u := trace[i%len(trace)]
			return u.Item, u.Weight
		}},
		{"flat-unit", 512, 6_000, func(rng *xrand.SplitMix64, _ *streamgen.Zipf, _ int) (int64, int64) {
			return int64(rng.Uint64n(4_000)), 1
		}},
		// Twenty heavy items over a floor of 300 items of weight 7: once
		// a shard lists past its heavy items, its cut is 7 and the 7s tie
		// across it.
		{"tied-at-cut", 1024, 320, func(_ *xrand.SplitMix64, _ *streamgen.Zipf, i int) (int64, int64) {
			if i < 20 {
				return int64(1_000 + i), int64(100 + 3*(i%7))
			}
			return int64(i), 7
		}},
		{"negative", 512, 12_000, func(rng *xrand.SplitMix64, z *streamgen.Zipf, _ int) (int64, int64) {
			return -1 - rank(z), 1 + int64(rng.Uint64n(4))
		}},
	}, 0, paths)
	runTopKShapes(t, []topKShape[uint64]{
		{"uint64-high-bit", 512, 12_000, func(_ *xrand.SplitMix64, z *streamgen.Zipf, _ int) (uint64, int64) {
			r := uint64(z.Next())
			return r>>1 | r<<63, 1
		}},
	}, 0, paths)
	runTopKShapes(t, []topKShape[string]{
		{"string", 512, 8_000, func(rng *xrand.SplitMix64, z *streamgen.Zipf, _ int) (string, int64) {
			return fmt.Sprintf("i%d", z.Next()), 1 + int64(rng.Uint64n(3))
		}},
	}, "", paths)
	var total [2]int
	for _, name := range slices.Sorted(maps.Keys(paths)) {
		p := paths[name]
		t.Logf("%s: %d listed answers, %d view scans", name, p[0], p[1])
		total[0] += p[0]
		total[1] += p[1]
	}
	if total[0] == 0 || total[1] == 0 {
		t.Fatalf("paths not both exercised: %d listed, %d view scans", total[0], total[1])
	}
	if paths["string"][0] == 0 {
		t.Fatal("the string shape never listed: the generic backend scanned the view on every read")
	}
}

// TestConcurrentTopKOneShard: a shard lists n+1 counters, so a single
// shard answers without the view whenever its n-th counter beats its
// (n+1)-th. Listing only n, its cut would be its own n-th counter and
// it could never tell.
func TestConcurrentTopKOneShard(t *testing.T) {
	c, err := NewConcurrent[int64](64, WithShards(1), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range int64(40) {
		if err := c.Update(i, 100-i); err != nil {
			t.Fatal(err)
		}
	}
	got, listed := listedRead(t, c, 0, func(q *Query[int64]) *Query[int64] { return q.Limit(3) })
	if !listed || len(got) != 3 || got[0].Item != 0 || got[2].Item != 2 {
		t.Fatalf("Limit(3) = %v (listed %v), want items 0, 1, 2 without the view", got, listed)
	}
}

// TestConcurrentTopKAllocatesOnlyTheLists: a TOPK 64 read after a write
// on a full 24,576-counter, 8-shard sketch holds the shards' lists, not
// a merged copy of every counter (~1.15 MB).
func TestConcurrentTopKAllocatesOnlyTheLists(t *testing.T) {
	c, err := NewConcurrent[int64](24576, WithShards(8), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	trace, err := streamgen.PacketTrace(streamgen.TraceConfig{Packets: 1 << 19, DistinctSources: 1 << 18, Alpha: 1.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range trace {
		if err := c.Update(u.Item, u.Weight); err != nil {
			t.Fatal(err)
		}
	}
	v, err := c.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.MaximumError() == 0 || v.NumActive() < 16384 {
		t.Fatalf("sketch holds %d counters at error %d, want a full, decrementing one", v.NumActive(), v.MaximumError())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	var total uint64
	for i := range runs {
		if err := c.Update(trace[i].Item, trace[i].Weight); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows := c.Query().Limit(64).Collect()
		runtime.ReadMemStats(&after)
		if len(rows) != 64 {
			t.Fatalf("Limit(64) returned %d rows", len(rows))
		}
		total += after.TotalAlloc - before.TotalAlloc
	}
	if merges := c.ViewMerges(); merges != 8 {
		t.Fatalf("reads merged the view (%d shard merges, want the 8 of the setup View)", merges)
	}
	if perCall := total / runs; perCall >= 64<<10 {
		t.Errorf("Limit(64) after a write allocated %d bytes per call, want under 64 KiB", perCall)
	}
}

// TestConcurrentTopKRace runs writers and limited readers on one
// Concurrent: every read's rows are sorted, share one error band, and
// bracket their estimates.
func TestConcurrentTopKRace(t *testing.T) {
	c, err := NewConcurrent[int64](512, WithShards(4), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stopAt := time.Now().Add(150 * time.Millisecond)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := zipfOrDie(t, 5_000, uint64(g)+1)
			items := make([]int64, 64)
			weights := make([]int64, 64)
			for i := 0; time.Now().Before(stopAt); i++ {
				for j := range items {
					items[j], weights[j] = int64(z.Next()), int64(1+(i+j)%9)
				}
				if err := c.UpdateWeightedBatch(items, weights); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(stopAt); i++ {
				rows := c.Query().Offset(i % 3).Limit(1 + (g*7+i)%70).Collect()
				for j, r := range rows {
					if r.LowerBound > r.Estimate || r.Estimate > r.UpperBound || r.UpperBound-r.LowerBound != rows[0].UpperBound-rows[0].LowerBound {
						t.Errorf("row %d %v outside its bounds or band (first row %v)", j, r, rows[0])
						return
					}
					if j > 0 && (r.Estimate > rows[j-1].Estimate || r.Estimate == rows[j-1].Estimate && r.Item <= rows[j-1].Item) {
						t.Errorf("rows %d and %d out of order: %v, %v", j-1, j, rows[j-1], r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzConcurrentTopK runs the ranking differential over fuzzed streams,
// shard counts, k and offsets: a seeded stream over a fuzzed universe
// and weight range, into small shards so that small k both list and
// fall back. A string-keyed copy of the stream runs the same
// differential on the generic backend.
func FuzzConcurrentTopK(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint16(600), uint16(5000), uint8(1), 2, 0)
	f.Add(uint64(2), uint8(0), uint16(2000), uint16(300), uint8(0), 1, 1)
	f.Add(uint64(3), uint8(7), uint16(900), uint16(64), uint8(9), 7, 7)
	f.Add(uint64(4), uint8(1), uint16(50), uint16(1), uint8(200), 0, -1)
	f.Fuzz(func(t *testing.T, seed uint64, shards uint8, n, universe uint16, maxWeight uint8, k, o int) {
		opts := []Option{WithShards(1 + int(shards%8)), WithSeed(seed | 1)}
		c, err := NewConcurrent[int64](128, opts...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewConcurrent[string](128, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.NewSplitMix64(seed)
		u := 1 + uint64(universe)
		fill := func() {
			for range n % 4096 {
				// The nested draw skews the stream toward small items.
				item, w := int64(rng.Uint64n(1+rng.Uint64n(u))), 1+int64(rng.Uint64n(1+uint64(maxWeight)))
				if err := c.Update(item, w); err != nil {
					t.Fatal(err)
				}
				if err := s.Update(strconv.FormatInt(item, 10), w); err != nil {
					t.Fatal(err)
				}
			}
		}
		for round := range 2 {
			fill()
			fuzzRanks(t, round, c, 0, k, o)
			fuzzRanks(t, round, s, "", k, o)
		}
	})
}

// fuzzRanks compares Offset(o).Limit(k) over c with the same page of a
// full scan of c.View() for the fuzzed k and o and their residues mod
// 8, and k = 1.
func fuzzRanks[T comparable](t *testing.T, round int, c *Concurrent[T], probe T, k, o int) {
	t.Helper()
	for _, k := range []int{k, k % 8, 1} {
		for _, o := range []int{o, o % 8} {
			page := func(q *Query[T]) *Query[T] { return q.Offset(o).Limit(k) }
			got, listed := listedRead(t, c, probe, page)
			v, err := c.View()
			if err != nil {
				t.Fatal(err)
			}
			if want := scanPage[T](v, o, k); !slices.Equal(got, want) {
				t.Fatalf("round %d: Offset(%d).Limit(%d) (listed %v):\n got %v\nwant %v", round, o, k, listed, got, want)
			}
		}
	}
}

// checkSingleRanks compares Offset(o).Limit(k) over src, a Sketch or a
// View, with the same page of a full scan for k in {1, 2, 64,
// NumActive, NumActive+1, MaxInt} and o in {0, 1, 7}, and reports how
// many of those queries the listing answered.
func checkSingleRanks[T comparable](t *testing.T, name string, src interface {
	rowSource[T]
	topLister[T]
	Query() *Query[T]
}, active int) (listed int) {
	t.Helper()
	for _, k := range []int{1, 2, 64, active, active + 1, math.MaxInt} {
		for _, o := range []int{0, 1, 7} {
			if _, ok := src.topRows(o + min(k, math.MaxInt-o)); ok {
				listed++
			}
			got := src.Query().Offset(o).Limit(k).Collect()
			if want := scanPage[T](src, o, k); !slices.Equal(got, want) {
				t.Fatalf("%s: Offset(%d).Limit(%d):\n got %v\nwant %v", name, o, k, got, want)
			}
		}
	}
	return listed
}

// TestSketchTopKMatchesScan: a limited query over a single Sketch or
// View, int64 and string, ranks from the sketch's largest counters and
// returns the rows a full scan does. On distinct weights the listing
// answers every query; on unit weights the counters tie at the cut, and
// only the 9 queries that reach past NumActive, so that nothing is cut,
// list.
func TestSketchTopKMatchesScan(t *testing.T) {
	for _, unit := range []bool{false, true} {
		ints, err := New[int64](256, WithSeed(21))
		if err != nil {
			t.Fatal(err)
		}
		strs, err := New[string](256)
		if err != nil {
			t.Fatal(err)
		}
		for i := range int64(200) {
			w := 1 + i
			if unit {
				w = 1
			}
			if err := ints.Update(i, w); err != nil {
				t.Fatal(err)
			}
			if err := strs.Update(strconv.FormatInt(i, 10), w); err != nil {
				t.Fatal(err)
			}
		}
		name := fmt.Sprintf("unit=%v", unit)
		listed := []int{
			checkSingleRanks[int64](t, name+"/int64 sketch", ints, ints.NumActive()),
			checkSingleRanks[int64](t, name+"/int64 view", NewView(ints), ints.NumActive()),
			checkSingleRanks[string](t, name+"/string sketch", strs, strs.NumActive()),
			checkSingleRanks[string](t, name+"/string view", NewView(strs), strs.NumActive()),
		}
		for i, n := range listed {
			if unit && n != 9 || !unit && n != 18 {
				t.Errorf("%s, source %d: %d of 18 queries listed", name, i, n)
			}
		}
	}
}
