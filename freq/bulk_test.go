package freq_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/freq"
)

// TestEstimateBatchAcrossBackends checks the batch read path against the
// scalar one on every front-end: fast and generic Sketch, fast and
// generic Concurrent, and a View.
func TestEstimateBatchAcrossBackends(t *testing.T) {
	fast, err := freq.New[int64](512, freq.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := freq.New[string](512)
	if err != nil {
		t.Fatal(err)
	}
	cFast, err := freq.NewConcurrent[int64](512, freq.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	cSlow, err := freq.NewConcurrent[string](512, freq.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := int64(0); i < 20_000; i++ {
		_ = fast.Update(i%300, i%17+1)
		_ = cFast.Update(i%300, i%17+1)
		_ = slow.Update(words[i%5], i%17+1)
		_ = cSlow.Update(words[i%5], i%17+1)
	}

	intItems := make([]int64, 0, 700)
	for i := int64(0); i < 350; i++ {
		intItems = append(intItems, i, 5_000_000+i) // hits and misses
	}
	gotFast := fast.EstimateBatch(intItems, nil)
	gotCFast := cFast.EstimateBatch(intItems, nil)
	for i, item := range intItems {
		if gotFast[i] != fast.Estimate(item) {
			t.Fatalf("Sketch item %d: %d != %d", item, gotFast[i], fast.Estimate(item))
		}
		if gotCFast[i] != cFast.Estimate(item) {
			t.Fatalf("Concurrent item %d: %d != %d", item, gotCFast[i], cFast.Estimate(item))
		}
	}

	strItems := append(append([]string(nil), words...), "zeta", "")
	gotSlow := slow.EstimateBatch(strItems, nil)
	gotCSlow := cSlow.EstimateBatch(strItems, nil)
	for i, item := range strItems {
		if gotSlow[i] != slow.Estimate(item) {
			t.Fatalf("generic Sketch %q: %d != %d", item, gotSlow[i], slow.Estimate(item))
		}
		if gotCSlow[i] != cSlow.Estimate(item) {
			t.Fatalf("generic Concurrent %q: %d != %d", item, gotCSlow[i], cSlow.Estimate(item))
		}
	}

	v, err := cFast.View()
	if err != nil {
		t.Fatal(err)
	}
	gotView := v.EstimateBatch(intItems, nil)
	for i, item := range intItems {
		if gotView[i] != v.Estimate(item) {
			t.Fatalf("View item %d: %d != %d", item, gotView[i], v.Estimate(item))
		}
	}
}

// TestAppendBinaryAllocFree asserts the fast path's serialization
// satellite at the facade: AppendBinary into capacity is alloc-free and
// agrees with MarshalBinary; WriteTo allocates nothing steady-state.
func TestAppendBinaryAllocFree(t *testing.T) {
	s, err := freq.New[int64](1024, freq.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50_000; i++ {
		_ = s.Update(i%2000, i%13+1)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(blob))
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = s.AppendBinary(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("AppendBinary into capacity allocates %.1f objects/op, want 0", allocs)
	}
	if !bytes.Equal(buf, blob) {
		t.Fatal("AppendBinary disagrees with MarshalBinary")
	}
	if _, err := s.WriteTo(io.Discard); err != nil {
		t.Fatal(err)
	}
	// >= 1 rather than > 0: a GC during the measurement may empty the
	// buffer pool and charge one refill.
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); allocs >= 1 {
		t.Errorf("WriteTo allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSignedSerializationRoundTrip covers the Signed parity satellite on
// both backends: marshal/unmarshal and WriteTo/ReadFrom reproduce every
// signed query answer, and corrupt input is rejected with ErrCorrupt
// leaving the receiver intact.
func TestSignedSerializationRoundTrip(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		s, err := freq.NewSigned[int64](256, freq.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 30_000; i++ {
			s.Update(i%500, i%19-4) // mixed insertions and deletions
		}
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := freq.NewSigned[int64](16)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		assertSignedEqual(t, s, restored)

		// Streaming round trip with trailing data.
		var buf bytes.Buffer
		n, err := s.WriteTo(&buf)
		if err != nil || n != int64(len(blob)) {
			t.Fatalf("WriteTo = (%d, %v), want %d bytes", n, err, len(blob))
		}
		buf.WriteString("trailing")
		streamed, err := freq.NewSigned[int64](16)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := streamed.ReadFrom(&buf); err != nil {
			t.Fatal(err)
		}
		if rest, _ := io.ReadAll(&buf); string(rest) != "trailing" {
			t.Fatalf("ReadFrom overconsumed; %q left", rest)
		}
		assertSignedEqual(t, s, streamed)

		// Rejections: truncated, trailing garbage in Unmarshal, plain junk.
		before := restored.Estimate(1)
		for _, bad := range [][]byte{
			blob[:len(blob)-5],
			append(append([]byte(nil), blob...), 1, 2, 3),
			[]byte("junk"),
		} {
			if err := restored.UnmarshalBinary(bad); !errors.Is(err, freq.ErrCorrupt) {
				t.Fatalf("bad input error = %v, want ErrCorrupt", err)
			}
			if restored.Estimate(1) != before {
				t.Fatal("failed unmarshal mutated the receiver")
			}
		}
	})
	t.Run("generic", func(t *testing.T) {
		s, err := freq.NewSigned[string](64)
		if err != nil {
			t.Fatal(err)
		}
		words := []string{"a", "b", "c", "d"}
		for i := int64(0); i < 5_000; i++ {
			s.Update(words[i%4], i%9-2)
		}
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := freq.NewSigned[string](8)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		for _, w := range append(words, "never-seen") {
			if s.Estimate(w) != restored.Estimate(w) ||
				s.LowerBound(w) != restored.LowerBound(w) ||
				s.UpperBound(w) != restored.UpperBound(w) {
				t.Fatalf("item %q drifted through round trip", w)
			}
		}
		if s.GrossWeight() != restored.GrossWeight() || s.NetWeight() != restored.NetWeight() {
			t.Fatal("weights drifted through round trip")
		}
	})
}

func assertSignedEqual(t *testing.T, want, got *freq.Signed[int64]) {
	t.Helper()
	if want.GrossWeight() != got.GrossWeight() || want.NetWeight() != got.NetWeight() ||
		want.MaximumError() != got.MaximumError() {
		t.Fatal("signed summary headers drifted")
	}
	for i := int64(0); i < 600; i++ {
		if want.Estimate(i) != got.Estimate(i) ||
			want.LowerBound(i) != got.LowerBound(i) ||
			want.UpperBound(i) != got.UpperBound(i) {
			t.Fatalf("item %d drifted through round trip", i)
		}
	}
}

// TestUnmarshalBinaryReusesReceiver pins the alloc-free receiver path on
// the facade: steady-state decodes of same-shape blobs allocate nothing.
func TestUnmarshalBinaryReusesReceiver(t *testing.T) {
	src, err := freq.New[int64](1024, freq.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40_000; i++ {
		_ = src.Update(i%1500, 3)
	}
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := freq.New[int64](16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := dst.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
	}); allocs >= 1 {
		// >= 1: tolerate a GC-driven pool refill mid-measurement.
		t.Errorf("steady-state UnmarshalBinary allocates %.1f objects/op, want 0", allocs)
	}
	for i := int64(0); i < 1500; i++ {
		if dst.Estimate(i) != src.Estimate(i) {
			t.Fatalf("item %d drifted", i)
		}
	}
}

// TestMergeBinaryMatchesUnmarshalAndMerge: folding encodings with
// MergeBinary answers as decoding each with UnmarshalBinary and merging
// it, on both backends, and a corrupt encoding returns ErrCorrupt and
// leaves the receiver as it was.
func TestMergeBinaryMatchesUnmarshalAndMerge(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		checkMergeBinary(t, func(i int64) int64 { return i })
	})
	t.Run("string", func(t *testing.T) {
		checkMergeBinary(t, func(i int64) string { return string(rune('a'+i%26)) + string(rune('a'+i/26%26)) })
	})
}

func checkMergeBinary[T comparable](t *testing.T, item func(int64) T) {
	var blobs [][]byte
	for s := int64(0); s < 4; s++ {
		sk, err := freq.New[T](256)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 3_000; i++ {
			if err := sk.Update(item((i*7919+s*131)%1000), 1+i%7); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	folded, err := freq.New[T](4 * 256)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := freq.New[T](4 * 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, blob := range blobs {
		if err := folded.MergeBinary(blob); err != nil {
			t.Fatal(err)
		}
		src, err := freq.New[T](1)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		merged.Merge(src)
	}
	if folded.MaximumError() == 0 {
		t.Fatal("no source decremented: the offsets go untested")
	}
	if folded.StreamWeight() != merged.StreamWeight() || folded.MaximumError() != merged.MaximumError() || folded.NumActive() != merged.NumActive() {
		t.Fatalf("folded N %d err %d active %d, merged N %d err %d active %d",
			folded.StreamWeight(), folded.MaximumError(), folded.NumActive(),
			merged.StreamWeight(), merged.MaximumError(), merged.NumActive())
	}
	for it, r := range merged.All() {
		if got := (freq.Row[T]{Item: it, Estimate: folded.Estimate(it), LowerBound: folded.LowerBound(it), UpperBound: folded.UpperBound(it)}); got != r {
			t.Fatalf("item %v: folded row %v, merged %v", it, got, r)
		}
	}
	before := folded.StreamWeight()
	bad := append([]byte(nil), blobs[0]...)
	bad[0] ^= 0xff
	if err := folded.MergeBinary(bad); !errors.Is(err, freq.ErrCorrupt) {
		t.Fatalf("corrupt encoding: %v, want ErrCorrupt", err)
	}
	if folded.StreamWeight() != before {
		t.Fatal("a rejected fold changed the receiver")
	}
}
