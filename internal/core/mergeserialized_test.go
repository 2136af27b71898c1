package core

import (
	"testing"
)

// TestMergeSerializedMatchesDeserializeAndMerge: folding encodings
// straight from their bytes gives the summary that decoding each into a
// scratch sketch and merging it gives, for full and decremented
// sources, an empty one and a one-counter one, while the accumulator's
// budget admits every counter.
func TestMergeSerializedMatchesDeserializeAndMerge(t *testing.T) {
	var blobs [][]byte
	for i := range 6 {
		s := buildDeterministic(t, Options{MaxCounters: 512, Seed: uint64(40 + i)}, 20_000, uint64(i))
		blobs = append(blobs, s.Serialize())
	}
	blobs = append(blobs, mustNew(t, Options{MaxCounters: 64, Seed: 7}).Serialize())
	one := mustNew(t, Options{MaxCounters: 64, Seed: 8})
	if err := one.Update(3, 9); err != nil {
		t.Fatal(err)
	}
	blobs = append(blobs, one.Serialize())

	folded := mustNew(t, Options{MaxCounters: 8 * 512})
	merged := mustNew(t, Options{MaxCounters: 8 * 512})
	for _, blob := range blobs {
		if err := folded.MergeSerialized(blob); err != nil {
			t.Fatal(err)
		}
		src, err := Deserialize(blob)
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(src)
	}
	if merged.MaximumError() == 0 {
		t.Fatal("no source decremented: the offsets go untested")
	}
	assertSameSummary(t, folded, merged)
}

// TestMergeSerializedTheorem5: under a budget that forces decrements,
// the folded summary still brackets every item's true frequency within
// the merged error bound.
func TestMergeSerializedTheorem5(t *testing.T) {
	a, b, oracle := buildPair(t, 256, 50_000, 1, 2)
	m := mustNew(t, Options{MaxCounters: 256, Seed: 0xCCCC})
	for _, s := range []*Sketch{a, b} {
		if err := m.MergeSerialized(s.Serialize()); err != nil {
			t.Fatal(err)
		}
	}
	checkMerged(t, m, oracle, "fold")
}

// TestMergeSerializedRejectsAsDeserialize: every encoding DeserializeInto
// rejects, the fold rejects with the same error, leaving the
// accumulator as it was.
func TestMergeSerializedRejectsAsDeserialize(t *testing.T) {
	_, cases := corruptEncodings(t)
	acc := buildDeterministic(t, Options{MaxCounters: 512, Seed: 9}, 5_000, 9)
	before := acc.Serialize()
	for name, data := range cases {
		want := DeserializeInto(new(Sketch), data)
		err := acc.MergeSerialized(data)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: fold error %v, DeserializeInto error %v", name, err, want)
		}
		if got := acc.Serialize(); string(got) != string(before) {
			t.Fatalf("%s: a rejected fold changed the accumulator", name)
		}
	}
}

// TestMergeSerializedAllocFree: once the pools are warm, refolding into
// a cleared accumulator allocates nothing.
func TestMergeSerializedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	blob := buildDeterministic(t, Options{MaxCounters: 1024, Seed: 10}, 20_000, 10).Serialize()
	acc := mustNew(t, Options{MaxCounters: 4096})
	fold := func() {
		acc.Clear()
		for range 3 {
			if err := acc.MergeSerialized(blob); err != nil {
				t.Fatal(err)
			}
		}
	}
	fold()
	if allocs := testing.AllocsPerRun(20, fold); allocs != 0 {
		t.Fatalf("a warm fold allocates %.1f times per run, want 0", allocs)
	}
}
