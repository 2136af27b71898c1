package hashmap

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// distinctKeys returns n distinct pseudo-random keys.
func distinctKeys(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool, n)
	keys := make([]int64, 0, n)
	for len(keys) < n {
		k := rng.Int63() - rng.Int63()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// distinctPairs returns n distinct pseudo-random keys with values i+1.
func distinctPairs(n int, seed int64) []Pair {
	keys := distinctKeys(n, seed)
	pairs := make([]Pair, n)
	for i, k := range keys {
		pairs[i] = Pair{Key: k, Value: int64(i + 1)}
	}
	return pairs
}

// TestInsertUniqueMatchesAdjust pins the placement contract: InsertUnique
// over distinct keys produces the exact table (slot for slot) an Adjust
// loop over the same sequence would.
func TestInsertUniqueMatchesAdjust(t *testing.T) {
	for _, n := range []int{0, 1, 7, probeWindow, probeWindow + 1, 100, 700} {
		pairs := distinctPairs(n, int64(n))
		a := mustNew(t, 10)
		b := mustNew(t, 10)
		for _, p := range pairs {
			a.Adjust(p.Key, p.Value)
		}
		b.InsertUnique(pairs)
		if a.NumActive() != b.NumActive() {
			t.Fatalf("n=%d: numActive %d vs %d", n, a.NumActive(), b.NumActive())
		}
		for i := 0; i < a.Length(); i++ {
			if a.states[i] != b.states[i] {
				t.Fatalf("n=%d slot %d: state %d vs %d", n, i, a.states[i], b.states[i])
			}
			if a.states[i] != 0 && (a.keys[i] != b.keys[i] || a.values[i] != b.values[i]) {
				t.Fatalf("n=%d slot %d: (%d,%d) vs (%d,%d)",
					n, i, a.keys[i], a.values[i], b.keys[i], b.values[i])
			}
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestInsertUniqueOnPartiallyFilled inserts a second distinct batch on
// top of an adjusted table — the shard fan-in shape — and checks the
// checked variant agrees on clean input.
func TestInsertUniqueOnPartiallyFilled(t *testing.T) {
	m := mustNew(t, 9)
	checked := mustNew(t, 9)
	pairs := distinctPairs(300, 3)
	m.AdjustPairs(pairs[:100])
	checked.AdjustPairs(pairs[:100])
	m.InsertUnique(pairs[100:])
	if key, ok := checked.InsertUniqueChecked(pairs[100:]); !ok {
		t.Fatalf("InsertUniqueChecked rejected clean input at key %d", key)
	}
	for _, mm := range []*Map{m, checked} {
		if mm.NumActive() != 300 {
			t.Fatalf("numActive %d, want 300", mm.NumActive())
		}
		for _, p := range pairs {
			if v, ok := mm.Get(p.Key); !ok || v != p.Value {
				t.Fatalf("key %d: got (%d, %v), want %d", p.Key, v, ok, p.Value)
			}
		}
		if err := mm.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInsertUniqueCheckedDetectsDuplicates covers both duplicate shapes:
// within the batch and against a pre-existing key.
func TestInsertUniqueCheckedDetectsDuplicates(t *testing.T) {
	pairs := distinctPairs(50, 4)

	m := mustNew(t, 8)
	batch := append(append([]Pair(nil), pairs...), pairs[7])
	if key, ok := m.InsertUniqueChecked(batch); ok || key != pairs[7].Key {
		t.Fatalf("in-batch duplicate: got (%d, %v), want (%d, false)", key, ok, pairs[7].Key)
	}

	m = mustNew(t, 8)
	m.Adjust(pairs[3].Key, 1)
	if key, ok := m.InsertUniqueChecked(pairs); ok || key != pairs[3].Key {
		t.Fatalf("pre-existing duplicate: got (%d, %v), want (%d, false)", key, ok, pairs[3].Key)
	}
}

func TestInsertUniqueHeadroomPanics(t *testing.T) {
	m := mustNew(t, MinLgLength) // 8 slots
	defer func() {
		if recover() == nil {
			t.Error("InsertUnique filling the table did not panic")
		}
	}()
	m.InsertUnique(distinctPairs(8, 5))
}

// TestGetBatchMatchesGet checks the pipelined lookup kernel against the
// scalar path over hits, misses, and every window-boundary length.
func TestGetBatchMatchesGet(t *testing.T) {
	m := mustNew(t, 10)
	keys := distinctKeys(500, 5)
	for i, k := range keys[:400] {
		m.Adjust(k, int64(i+1))
	}
	for _, n := range []int{0, 1, probeWindow - 1, probeWindow, probeWindow + 1, 500} {
		probe := keys[:n]
		values := make([]int64, n)
		found := make([]bool, n)
		m.GetBatch(probe, values, found)
		for i, k := range probe {
			wantV, wantOK := m.Get(k)
			if values[i] != wantV || found[i] != wantOK {
				t.Fatalf("n=%d key %d: got (%d,%v), want (%d,%v)",
					n, k, values[i], found[i], wantV, wantOK)
			}
		}
		// nil found must be accepted.
		m.GetBatch(probe, values, nil)
	}
}

func TestResetReseedsAndEmpties(t *testing.T) {
	m := mustNew(t, 6)
	pairs := distinctPairs(20, 7)
	m.InsertUnique(pairs)
	m.Reset(999)
	if m.NumActive() != 0 || m.Seed() != 999 {
		t.Fatalf("after Reset: active=%d seed=%d", m.NumActive(), m.Seed())
	}
	for _, p := range pairs {
		if _, ok := m.Get(p.Key); ok {
			t.Fatalf("key %d survived Reset", p.Key)
		}
	}
	m.InsertUnique(pairs)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendActiveMatchesRange pins that the gather kernel yields the
// same pairs, in table order, as the Range callback it replaces.
func TestAppendActiveMatchesRange(t *testing.T) {
	m := mustNew(t, 9)
	m.InsertUnique(distinctPairs(200, 8))

	var want []Pair
	m.Range(func(k, v int64) bool {
		want = append(want, Pair{Key: k, Value: v})
		return true
	})
	got := m.AppendActive(nil)
	if len(got) != len(want) {
		t.Fatalf("gathered %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestAppendLargest pins the selection kernel against AppendActive:
// after dst's prefix it appends min(n, NumActive) distinct table pairs
// whose values are the n largest, ties and out-of-range n included.
func TestAppendLargest(t *testing.T) {
	m := mustNew(t, 9)
	pairs := distinctPairs(200, 11)
	for i := range pairs {
		pairs[i].Value = int64(i%37 + 1) // many ties
	}
	m.InsertUnique(pairs)
	var all []int64
	for _, p := range m.AppendActive(nil) {
		all = append(all, p.Value)
	}
	slices.Sort(all)
	slices.Reverse(all)
	prefix := []Pair{{Key: 1, Value: -1}, {Key: 2, Value: -2}}
	for _, n := range []int{-1, 0, 1, 2, 7, 36, 37, 100, 199, 200, 201, math.MaxInt} {
		got := m.AppendLargest(slices.Clone(prefix), n)
		if !slices.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("n=%d: prefix overwritten: %v", n, got[:len(prefix)])
		}
		got = got[len(prefix):]
		want := all[:min(max(n, 0), len(all))]
		var vals []int64
		seen := map[int64]bool{}
		for _, p := range got {
			if v, ok := m.Get(p.Key); !ok || v != p.Value || seen[p.Key] {
				t.Fatalf("n=%d: pair %v is not a distinct table counter", n, p)
			}
			seen[p.Key] = true
			vals = append(vals, p.Value)
		}
		slices.Sort(vals)
		slices.Reverse(vals)
		if !slices.Equal(vals, want) {
			t.Fatalf("n=%d: values %v, want the largest %v", n, vals, want)
		}
	}
}

func BenchmarkInsertUnique(b *testing.B) {
	pairs := distinctPairs(3000, 9)
	m, err := New(12, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(uint64(i + 1))
		m.InsertUnique(pairs)
	}
}

func BenchmarkGetBatch(b *testing.B) {
	m, err := New(16, 1)
	if err != nil {
		b.Fatal(err)
	}
	pairs := distinctPairs(40_000, 10)
	m.InsertUnique(pairs)
	keys := make([]int64, len(pairs))
	for i, p := range pairs {
		keys[i] = p.Key
	}
	out := make([]int64, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.GetBatch(keys, out, nil)
	}
}
