package hashmap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func mustNew(t *testing.T, lg int) *Map {
	t.Helper()
	m, err := New(lg, 12345)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(MinLgLength-1, 0); err == nil {
		t.Error("expected error below MinLgLength")
	}
	if _, err := New(MaxLgLength+1, 0); err == nil {
		t.Error("expected error above MaxLgLength")
	}
	m, err := New(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Length() != 16 || m.Capacity() != 12 || m.LgLength() != 4 || m.Seed() != 7 {
		t.Errorf("unexpected geometry: L=%d cap=%d lg=%d seed=%d",
			m.Length(), m.Capacity(), m.LgLength(), m.Seed())
	}
}

func TestNewWithLoadFactor(t *testing.T) {
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewWithLoadFactor(5, 1, bad); err == nil {
			t.Errorf("load %v accepted", bad)
		}
	}
	m, err := NewWithLoadFactor(5, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacity() != 16 {
		t.Errorf("capacity %d, want 16 at half load of 32 slots", m.Capacity())
	}
	// Tiny load still leaves a usable table.
	m, err = NewWithLoadFactor(MinLgLength, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacity() < 1 {
		t.Error("capacity floored below 1")
	}
	// The half-load table behaves correctly under the model workload.
	m, _ = NewWithLoadFactor(6, 9, 0.5)
	for i := int64(0); i < int64(m.Capacity()); i++ {
		m.Adjust(i, i+1)
	}
	m.DecrementAndPurge(5)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustGetDelete(t *testing.T) {
	m := mustNew(t, 5)
	if _, ok := m.Get(99); ok {
		t.Error("Get on empty map returned ok")
	}
	if !m.Adjust(99, 5) {
		t.Error("first Adjust should insert")
	}
	if m.Adjust(99, 3) {
		t.Error("second Adjust should not insert")
	}
	if v, ok := m.Get(99); !ok || v != 8 {
		t.Errorf("Get = (%d, %v), want (8, true)", v, ok)
	}
	if !m.Delete(99) {
		t.Error("Delete should report present")
	}
	if m.Delete(99) {
		t.Error("second Delete should report absent")
	}
	if m.NumActive() != 0 {
		t.Errorf("NumActive = %d after delete", m.NumActive())
	}
}

// TestModelEquivalence drives the map and a builtin-map model with the
// same random operation sequence (including decrement-and-purge, the
// frequent-items workhorse) and requires identical observable state plus
// clean probing invariants throughout.
func TestModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		m := mustNew(t, 6) // 64 slots, capacity 48
		model := map[int64]int64{}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(100); {
			case r < 60: // adjust
				if m.NumActive() >= m.Capacity() {
					break
				}
				key := int64(rng.Intn(200))
				delta := int64(rng.Intn(50) + 1)
				m.Adjust(key, delta)
				model[key] += delta
			case r < 75: // delete
				key := int64(rng.Intn(200))
				_, want := model[key]
				if got := m.Delete(key); got != want {
					t.Fatalf("trial %d op %d: Delete(%d) = %v, model %v", trial, op, key, got, want)
				}
				delete(model, key)
			default: // decrement and purge
				dec := int64(rng.Intn(30) + 1)
				m.DecrementAndPurge(dec)
				for k, v := range model {
					if v -= dec; v <= 0 {
						delete(model, k)
					} else {
						model[k] = v
					}
				}
			}
			if op%100 == 0 {
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("trial %d op %d: %v", trial, op, err)
				}
			}
		}
		// Final full comparison.
		if m.NumActive() != len(model) {
			t.Fatalf("trial %d: NumActive %d, model %d", trial, m.NumActive(), len(model))
		}
		for k, want := range model {
			if got, ok := m.Get(k); !ok || got != want {
				t.Fatalf("trial %d: Get(%d) = (%d, %v), want (%d, true)", trial, k, got, ok, want)
			}
		}
		m.Range(func(k, v int64) bool {
			if model[k] != v {
				t.Fatalf("trial %d: Range visited (%d, %d), model has %d", trial, k, v, model[k])
			}
			return true
		})
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("trial %d final: %v", trial, err)
		}
	}
}

func TestPurgeAtHighLoadManySeeds(t *testing.T) {
	// Exercise wrap-around runs: small table at full capacity across many
	// hash seeds so runs regularly cross the array end.
	for seed := uint64(0); seed < 50; seed++ {
		m, err := New(MinLgLength, seed) // 8 slots, capacity 6
		if err != nil {
			t.Fatal(err)
		}
		model := map[int64]int64{}
		rng := rand.New(rand.NewSource(int64(seed)))
		for round := 0; round < 200; round++ {
			for m.NumActive() < m.Capacity() {
				k := int64(rng.Intn(40))
				m.Adjust(k, int64(rng.Intn(5)+1))
				model[k] += 0 // placeholder; rebuilt below
			}
			// Rebuild model from scratch via Range to keep in sync.
			model = map[int64]int64{}
			m.Range(func(k, v int64) bool { model[k] = v; return true })
			dec := int64(rng.Intn(4) + 1)
			m.DecrementAndPurge(dec)
			for k, v := range model {
				if v -= dec; v <= 0 {
					delete(model, k)
				} else {
					model[k] = v
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if m.NumActive() != len(model) {
				t.Fatalf("seed %d round %d: active %d model %d", seed, round, m.NumActive(), len(model))
			}
			for k, want := range model {
				if got, ok := m.Get(k); !ok || got != want {
					t.Fatalf("seed %d round %d: Get(%d)=(%d,%v) want (%d,true)", seed, round, k, got, ok, want)
				}
			}
		}
	}
}

// TestKeepOnlyPositiveRemovesExactly purges at 0, which keeps exactly
// the positive counters and leaves their values as they were.
func TestKeepOnlyPositiveRemovesExactly(t *testing.T) {
	m := mustNew(t, 6)
	for i := int64(0); i < 40; i++ {
		m.Adjust(i, i-19) // values -19..20: 20 non-positive (0 counts as non-positive)
	}
	m.DecrementAndPurge(0)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.NumActive() != 20 {
		t.Fatalf("NumActive = %d, want 20", m.NumActive())
	}
	for i := int64(0); i < 40; i++ {
		v, ok := m.Get(i)
		if i <= 19 && ok {
			t.Errorf("non-positive key %d survived with %d", i, v)
		}
		if i > 19 && (!ok || v != i-19) {
			t.Errorf("positive key %d: got (%d, %v)", i, v, ok)
		}
	}
}

func TestSampleValues(t *testing.T) {
	m := mustNew(t, 8)
	for i := int64(0); i < 100; i++ {
		m.Adjust(i, i+1)
	}
	rng := xrand.NewSplitMix64(1)

	// Fewer active than buffer: exact copy of all values.
	buf := make([]int64, 128)
	n := m.SampleValues(buf, &rng)
	if n != 100 {
		t.Fatalf("exact sample size = %d, want 100", n)
	}
	got := append([]int64(nil), buf[:n]...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("exact sample missing values: idx %d = %d", i, v)
		}
	}

	// More active than buffer: random sample of active values.
	small := make([]int64, 16)
	n = m.SampleValues(small, &rng)
	if n != 16 {
		t.Fatalf("sample size = %d, want 16", n)
	}
	for _, v := range small {
		if v < 1 || v > 100 {
			t.Fatalf("sampled value %d not an active value", v)
		}
	}

	// Empty map.
	empty := mustNew(t, 4)
	if n := empty.SampleValues(buf, &rng); n != 0 {
		t.Errorf("empty sample = %d", n)
	}
}

func TestSampleValuesCoverage(t *testing.T) {
	// With-replacement sampling from 8 equal-probability slots should see
	// most distinct values in a large sample.
	m := mustNew(t, 6)
	for i := int64(0); i < 32; i++ {
		m.Adjust(i, i+1)
	}
	rng := xrand.NewSplitMix64(2)
	buf := make([]int64, 8)
	seen := map[int64]bool{}
	for round := 0; round < 200; round++ {
		m.SampleValues(buf, &rng)
		for _, v := range buf {
			seen[v] = true
		}
	}
	if len(seen) < 28 {
		t.Errorf("sampling covered only %d/32 values", len(seen))
	}
}

func TestRangeShuffledVisitsAll(t *testing.T) {
	m := mustNew(t, 7)
	want := map[int64]int64{}
	for i := int64(0); i < 90; i++ {
		m.Adjust(i*3, i)
		want[i*3] = i
	}
	rng := xrand.NewSplitMix64(3)
	for trial := 0; trial < 10; trial++ {
		got := map[int64]int64{}
		m.RangeShuffled(&rng, func(k, v int64) bool {
			if _, dup := got[k]; dup {
				t.Fatalf("RangeShuffled visited %d twice", k)
			}
			got[k] = v
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("RangeShuffled visited %d, want %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("RangeShuffled value mismatch for %d", k)
			}
		}
	}
}

func TestRangeShuffledOrderVaries(t *testing.T) {
	m := mustNew(t, 6)
	for i := int64(0); i < 40; i++ {
		m.Adjust(i, 1)
	}
	rng := xrand.NewSplitMix64(4)
	var first, second []int64
	m.RangeShuffled(&rng, func(k, _ int64) bool { first = append(first, k); return true })
	m.RangeShuffled(&rng, func(k, _ int64) bool { second = append(second, k); return true })
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("two shuffled iterations produced identical order")
	}
}

func TestRangeEarlyStop(t *testing.T) {
	m := mustNew(t, 5)
	for i := int64(0); i < 20; i++ {
		m.Adjust(i, 1)
	}
	count := 0
	m.Range(func(_, _ int64) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("Range visited %d after early stop, want 5", count)
	}
	rng := xrand.NewSplitMix64(5)
	count = 0
	m.RangeShuffled(&rng, func(_, _ int64) bool { count++; return count < 3 })
	if count != 3 {
		t.Errorf("RangeShuffled visited %d after early stop, want 3", count)
	}
}

func TestSumAndActiveValues(t *testing.T) {
	m := mustNew(t, 5)
	var want int64
	for i := int64(1); i <= 10; i++ {
		m.Adjust(i, i*10)
		want += i * 10
	}
	if got := m.SumValues(); got != want {
		t.Errorf("SumValues = %d, want %d", got, want)
	}
	vals := m.ActiveValues(nil)
	if len(vals) != 10 {
		t.Fatalf("ActiveValues returned %d", len(vals))
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	if sum != want {
		t.Errorf("ActiveValues sum %d, want %d", sum, want)
	}
}

func TestMaxProbeDistanceReasonable(t *testing.T) {
	m := mustNew(t, 12) // 4096 slots
	for i := int64(0); m.NumActive() < m.Capacity(); i++ {
		m.Adjust(i, 1)
	}
	if d := m.MaxProbeDistance(); d > 200 {
		t.Errorf("max probe distance %d unreasonably large at 3/4 load", d)
	}
}

func TestTableFullPanics(t *testing.T) {
	m := mustNew(t, MinLgLength) // 8 slots
	defer func() {
		if recover() == nil {
			t.Error("expected panic filling table")
		}
	}()
	for i := int64(0); i < 8; i++ {
		m.Adjust(i, 1)
	}
}

func TestNegativeAndZeroKeys(t *testing.T) {
	m := mustNew(t, 5)
	keys := []int64{0, -1, -1 << 62, 1<<62 - 1, 42}
	for i, k := range keys {
		m.Adjust(k, int64(i+1))
	}
	for i, k := range keys {
		if v, ok := m.Get(k); !ok || v != int64(i+1) {
			t.Errorf("Get(%d) = (%d, %v)", k, v, ok)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAdjustSum(t *testing.T) {
	// Property: after a sequence of positive adjusts, Get(k) equals the
	// sum of deltas for k.
	f := func(keys []uint8, deltas []uint8) bool {
		m, err := New(8, 99) // capacity 192 >= 256 distinct uint8? no: 192 < 256
		if err != nil {
			return false
		}
		model := map[int64]int64{}
		for i, kRaw := range keys {
			if len(model) >= m.Capacity() {
				break
			}
			k := int64(kRaw)
			d := int64(1)
			if i < len(deltas) {
				d = int64(deltas[i]) + 1
			}
			m.Adjust(k, d)
			model[k] += d
		}
		for k, want := range model {
			if got, _ := m.Get(k); got != want {
				return false
			}
		}
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdjustHit(b *testing.B) {
	m, _ := New(16, 1)
	for i := int64(0); i < int64(m.Capacity()); i++ {
		m.Adjust(i, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Adjust(int64(i)%int64(m.Capacity()), 1)
	}
}

func BenchmarkGetHit(b *testing.B) {
	m, _ := New(16, 1)
	for i := int64(0); i < int64(m.Capacity()); i++ {
		m.Adjust(i, 1)
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		v, _ := m.Get(int64(i) % int64(m.Capacity()))
		sink += v
	}
	_ = sink
}
