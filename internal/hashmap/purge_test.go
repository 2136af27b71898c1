package hashmap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/streamgen"
)

// referencePurge is the per-deletion purge DecrementAndPurge replaced:
// from just past an empty slot, decrement each survivor where it stands
// and delete each counter <= dec with deleteSlot, whose backward shift
// walks the rest of the run before the scan reaches it. It costs
// O(deleted × run length) per run and is kept as the layout oracle.
func referencePurge(m *Map, dec int64) {
	if m.numActive == 0 {
		return
	}
	start := 0
	for m.states[start] != 0 {
		start++
	}
	for off := 1; off <= m.length; off++ {
		i := (start + off) & int(m.mask)
		for m.states[i] != 0 {
			if m.values[i] > dec {
				m.values[i] -= dec
				break
			}
			m.deleteSlot(i)
		}
	}
}

func (m *Map) clone() *Map {
	c := *m
	c.keys = slices.Clone(m.keys)
	c.values = slices.Clone(m.values)
	c.states = slices.Clone(m.states)
	return &c
}

// copyFrom overwrites m with src, which must have the same length,
// without allocating.
func (m *Map) copyFrom(src *Map) {
	copy(m.keys, src.keys)
	copy(m.values, src.values)
	copy(m.states, src.states)
	m.numActive = src.numActive
}

// purgeBoth purges one copy of m with DecrementAndPurge and one with
// referencePurge, fails t unless the two tables agree slot for slot, and
// returns the purged table. States and numActive must match everywhere;
// keys and values only where a slot is occupied, since nothing reads an
// empty slot's stale key or value.
func purgeBoth(t testing.TB, m *Map, dec int64) *Map {
	t.Helper()
	got, want := m.clone(), m.clone()
	got.DecrementAndPurge(dec)
	referencePurge(want, dec)
	if got.numActive != want.numActive {
		t.Fatalf("purge at %d: numActive %d, reference %d", dec, got.numActive, want.numActive)
	}
	for i := range want.states {
		if got.states[i] != want.states[i] {
			t.Fatalf("purge at %d slot %d: state %d, reference %d", dec, i, got.states[i], want.states[i])
		}
		if want.states[i] != 0 && (got.keys[i] != want.keys[i] || got.values[i] != want.values[i]) {
			t.Fatalf("purge at %d slot %d: (%d, %d), reference (%d, %d)",
				dec, i, got.keys[i], got.values[i], want.keys[i], want.values[i])
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("purge at %d: %v", dec, err)
	}
	return got
}

// purgeLevels returns the thresholds a purge of m is checked at: 0, the
// smallest, a random, the median and the largest counter value.
func purgeLevels(m *Map, rng *rand.Rand) []int64 {
	vals := m.ActiveValues(nil)
	if len(vals) == 0 {
		return []int64{0}
	}
	slices.Sort(vals)
	return []int64{0, vals[0], vals[rng.Intn(len(vals))], vals[len(vals)/2], vals[len(vals)-1]}
}

// TestPurgeMatchesReference pins DecrementAndPurge to the layout of the
// per-deletion reference: random tables of every fill level at lg 3–12,
// then small tables kept full across purge rounds, whose runs regularly
// wrap the array end (as in TestPurgeAtHighLoadManySeeds).
func TestPurgeMatchesReference(t *testing.T) {
	for lg := MinLgLength; lg <= 12; lg++ {
		for seed := range max(20, 2000>>(lg-MinLgLength)) {
			rng := rand.New(rand.NewSource(int64(seed)))
			m, err := New(lg, uint64(seed))
			if err != nil {
				t.Fatal(err)
			}
			for n := rng.Intn(m.Capacity() + 1); m.NumActive() < n; {
				m.Adjust(rng.Int63n(4*int64(m.Capacity())), rng.Int63n(100)+1)
			}
			for _, dec := range purgeLevels(m, rng) {
				purgeBoth(t, m, dec)
			}
		}
	}
	for seed := uint64(0); seed < 200; seed++ {
		m, err := New(MinLgLength, seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for round := 0; round < 100; round++ {
			for m.NumActive() < m.Capacity() {
				m.Adjust(int64(rng.Intn(40)), int64(rng.Intn(5)+1))
			}
			levels := purgeLevels(m, rng)
			for _, dec := range levels {
				purgeBoth(t, m, dec)
			}
			m = purgeBoth(t, m, levels[2])
		}
	}
}

// FuzzDecrementAndPurge decodes a table size, a hash seed, a threshold
// and (key, value) pairs, three bytes each, and checks the purge against
// the reference slot for slot. Keys come from a small domain so that
// updates collide and runs form; values may be non-positive.
func FuzzDecrementAndPurge(f *testing.F) {
	f.Add(uint8(0), uint64(0), int64(2), []byte{1, 0, 3, 2, 0, 1, 9, 0, 5, 17, 0, 2, 33, 0, 4})
	f.Add(uint8(2), uint64(7), int64(0), []byte{0, 1, 0xff, 0, 2, 1, 0, 3, 0x80, 0, 4, 7})
	f.Add(uint8(5), uint64(1), int64(-3), []byte{5, 5, 5, 6, 6, 6, 7, 7, 7})
	f.Fuzz(func(t *testing.T, lg uint8, seed uint64, dec int64, data []byte) {
		m, err := New(MinLgLength+int(lg%6), seed)
		if err != nil {
			t.Fatal(err)
		}
		for ; len(data) >= 3 && m.NumActive() < m.Capacity(); data = data[3:] {
			m.Adjust(int64(data[0])|int64(data[1]&3)<<8, int64(int8(data[2])))
		}
		purgeBoth(t, m, dec)
	})
}

// packetTable returns a table at lg filled to capacity with distinct
// keys carrying packet-size weights, and the median of those weights:
// the shape a sketch's table has when Algorithm 4 purges it.
func packetTable(tb testing.TB, lg int) (*Map, int64) {
	tb.Helper()
	m, err := New(lg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	trace, err := streamgen.PacketTrace(streamgen.TraceConfig{Packets: m.Capacity(), DistinctSources: m.Capacity(), Seed: uint64(lg)})
	if err != nil {
		tb.Fatal(err)
	}
	for i, u := range trace {
		m.Adjust(int64(i), u.Weight)
	}
	vals := m.ActiveValues(nil)
	slices.Sort(vals)
	return m, vals[len(vals)/2]
}

func TestDecrementAndPurgeNoAlloc(t *testing.T) {
	src, med := packetTable(t, 10)
	m := src.clone()
	allocs := testing.AllocsPerRun(50, func() {
		m.copyFrom(src)
		m.DecrementAndPurge(med)
	})
	if allocs != 0 {
		t.Fatalf("DecrementAndPurge allocates %.1f times per purge, want 0", allocs)
	}
	if n := m.NumActive(); n == 0 || n >= src.NumActive() {
		t.Fatalf("median purge left %d of %d counters", n, src.NumActive())
	}
}

// BenchmarkDecrementAndPurge times the median purge of a full table at
// the shard sizes of the benchmark's history (lg 10) and ingest/tenants
// (lg 12) servers. Each iteration restores the prebuilt table outside
// the timer, so every purge deletes about half the counters.
func BenchmarkDecrementAndPurge(b *testing.B) {
	for _, lg := range []int{10, 12} {
		b.Run(fmt.Sprintf("lg%d", lg), func(b *testing.B) {
			src, med := packetTable(b, lg)
			m := src.clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.copyFrom(src)
				b.StartTimer()
				m.DecrementAndPurge(med)
			}
		})
	}
}
