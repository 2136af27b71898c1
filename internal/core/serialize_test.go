package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/streamgen"
)

func roundTrip(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	blob := s.Serialize()
	if len(blob) != s.SerializedSizeBytes() {
		t.Fatalf("Serialize length %d, SerializedSizeBytes %d", len(blob), s.SerializedSizeBytes())
	}
	got, err := Deserialize(blob)
	if err != nil {
		t.Fatalf("Deserialize: %v", err)
	}
	return got
}

// assertQueryEquivalent verifies the restored sketch answers every query
// the original can answer identically.
func assertQueryEquivalent(t *testing.T, want, got *Sketch, probeItems []int64) {
	t.Helper()
	if got.StreamWeight() != want.StreamWeight() {
		t.Errorf("StreamWeight %d, want %d", got.StreamWeight(), want.StreamWeight())
	}
	if got.MaximumError() != want.MaximumError() {
		t.Errorf("MaximumError %d, want %d", got.MaximumError(), want.MaximumError())
	}
	if got.NumActive() != want.NumActive() {
		t.Errorf("NumActive %d, want %d", got.NumActive(), want.NumActive())
	}
	if got.Quantile() != want.Quantile() || got.SampleSize() != want.SampleSize() {
		t.Errorf("config drifted: q=%v l=%d, want q=%v l=%d",
			got.Quantile(), got.SampleSize(), want.Quantile(), want.SampleSize())
	}
	for _, item := range probeItems {
		if g, w := got.Estimate(item), want.Estimate(item); g != w {
			t.Errorf("Estimate(%d) = %d, want %d", item, g, w)
		}
		if g, w := got.LowerBound(item), want.LowerBound(item); g != w {
			t.Errorf("LowerBound(%d) = %d, want %d", item, g, w)
		}
		if g, w := got.UpperBound(item), want.UpperBound(item); g != w {
			t.Errorf("UpperBound(%d) = %d, want %d", item, g, w)
		}
	}
	wantRows := map[int64]Row{}
	for r := range want.All() {
		wantRows[r.Item] = r
	}
	n := 0
	for r := range got.All() {
		if w, ok := wantRows[r.Item]; !ok || r != w {
			t.Errorf("row %v, want %v", r, w)
		}
		n++
	}
	if n != len(wantRows) {
		t.Fatalf("row count %d, want %d", n, len(wantRows))
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	stream, err := streamgen.ZipfStream(1.1, 1<<12, 50_000, 1000, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{MaxCounters: 128, Seed: 1},
		{MaxCounters: 128, Seed: 1, Quantile: QuantileMin},
		{MaxCounters: 128, Seed: 1, Quantile: 0.75, SampleSize: 256},
	} {
		s := mustNew(t, opt)
		probes := make([]int64, 0, 64)
		for i, u := range stream {
			_ = s.Update(u.Item, u.Weight)
			if i%1000 == 0 {
				probes = append(probes, u.Item)
			}
		}
		probes = append(probes, 424242424242) // never seen
		got := roundTrip(t, s)
		assertQueryEquivalent(t, s, got, probes)
	}
}

func TestSerializeEmpty(t *testing.T) {
	s := mustNew(t, Options{MaxCounters: 64, Seed: 2})
	got := roundTrip(t, s)
	if !got.IsEmpty() || got.NumActive() != 0 {
		t.Error("empty sketch round trip not empty")
	}
	// Restored empty sketch must remain fully usable.
	if err := got.Update(5, 50); err != nil {
		t.Fatal(err)
	}
	if got.Estimate(5) != 50 {
		t.Error("restored empty sketch unusable")
	}
}

func TestDeserializedSketchKeepsWorking(t *testing.T) {
	s := mustNew(t, Options{MaxCounters: 64, Seed: 3})
	for i := int64(0); i < 10_000; i++ {
		_ = s.Update(i%500, 7)
	}
	got := roundTrip(t, s)
	// Continue updating and merging on the restored sketch.
	for i := int64(0); i < 10_000; i++ {
		if err := got.Update(i%300, 3); err != nil {
			t.Fatal(err)
		}
	}
	other := mustNew(t, Options{MaxCounters: 64, Seed: 4})
	_ = other.Update(1, 1000)
	got.Merge(other)
	if got.StreamWeight() != s.StreamWeight()+30_000+1000 {
		t.Errorf("restored sketch miscounts: %d", got.StreamWeight())
	}
}

func TestWriteToReadFrom(t *testing.T) {
	s := mustNew(t, Options{MaxCounters: 96, Seed: 5})
	for i := int64(0); i < 5000; i++ {
		_ = s.Update(i%200, i%97+1)
	}
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(s.SerializedSizeBytes()) {
		t.Errorf("WriteTo wrote %d, want %d", n, s.SerializedSizeBytes())
	}
	// Append trailing garbage: ReadFrom must consume only its own bytes.
	buf.WriteString("trailing")
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertQueryEquivalent(t, s, got, []int64{0, 1, 199, 4242})
	if rest, _ := io.ReadAll(&buf); string(rest) != "trailing" {
		t.Errorf("ReadFrom overconsumed; remainder %q", rest)
	}
}

// corruptEncodings returns a valid encoding and, by name, encodings
// every decoder must reject.
func corruptEncodings(t *testing.T) (good []byte, cases map[string][]byte) {
	s := mustNew(t, Options{MaxCounters: 64, Seed: 6})
	for i := int64(0); i < 100; i++ {
		_ = s.Update(i, i+1)
	}
	good = s.Serialize()

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	return good, map[string][]byte{
		"empty":       {},
		"short":       good[:10],
		"bad magic":   mutate(func(b []byte) { b[0] ^= 0xFF }),
		"bad version": mutate(func(b []byte) { b[4] = 99 }),
		"bad lgmax":   mutate(func(b []byte) { b[6] = 63 }),
		"truncated":   good[:len(good)-8],
		"extended":    append(append([]byte(nil), good...), 0, 0, 0, 0),
		"neg counter": mutate(func(b []byte) {
			neg := int64(-5)
			binary.LittleEndian.PutUint64(b[len(b)-8:], uint64(neg))
		}),
		"dup item": mutate(func(b []byte) {
			// Make the last record's key equal the first record's key.
			copy(b[len(b)-16:len(b)-8], b[headerBytes:headerBytes+8])
		}),
		"absurd numActive": mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[36:], 1<<30)
		}),
		"NaN quantile": mutate(func(b []byte) {
			binary.LittleEndian.PutUint64(b[12:], math.Float64bits(math.NaN()))
		}),
		// Counters but no stream weight: accepted, it re-encoded with the
		// empty flag set, which the decoder rejects.
		"zero weight with counters": func() []byte {
			b := mustNew(t, Options{MaxCounters: 64, Seed: 6})
			_ = b.Update(5, 10)
			blob := b.Serialize()
			binary.LittleEndian.PutUint64(blob[20:], 0)
			return blob
		}(),
		"zero weight with offset": func() []byte {
			b := mustNew(t, Options{MaxCounters: 64, Seed: 6}).Serialize()
			b[5] = 0 // clear the empty flag
			binary.LittleEndian.PutUint64(b[28:], 3)
			return b
		}(),
	}
}

func TestDeserializeCorrupt(t *testing.T) {
	good, cases := corruptEncodings(t)
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	for name, data := range cases {
		if _, err := Deserialize(data); err == nil {
			t.Errorf("%s: Deserialize accepted corrupt input", name)
		}
	}
	if _, err := Deserialize(mutate(func(b []byte) { b[0] ^= 0xFF })); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic error = %v, want ErrBadMagic", err)
	}
	if _, err := Deserialize(mutate(func(b []byte) { b[4] = 99 })); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version error = %v, want ErrBadVersion", err)
	}
}

// TestDeserializeRejectsHugeSampleSize pins the sample-size cap on
// decode. The sample buffer is allocated at the header's size, so
// before the cap the 40-byte blob below (the FuzzSketchReadFrom
// crasher, ℓ = 0x6f000000) asked for ~14 GiB, and a 56-byte one with
// ℓ = 2^24 decoded after allocating 128 MiB.
func TestDeserializeRejectsHugeSampleSize(t *testing.T) {
	crasher := make([]byte, headerBytes)
	copy(crasher, "1SIF\x01\x00\x07\x00\x00\x00\x00\x6f")
	s := mustNew(t, Options{MaxCounters: 64, Seed: 7})
	_ = s.Update(42, 7)
	oneCounter := s.Serialize()
	binary.LittleEndian.PutUint32(oneCounter[8:], 1<<24)
	for name, blob := range map[string][]byte{"crasher": crasher, "2^24": oneCounter} {
		if _, err := Deserialize(blob); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (%d bytes): Deserialize error %v, want ErrCorrupt", name, len(blob), err)
		}
	}

	big := mustNew(t, Options{MaxCounters: 64, SampleSize: MaxSampleSize, Seed: 8})
	_ = big.Update(42, 7)
	if got := roundTrip(t, big).SampleSize(); got != MaxSampleSize {
		t.Errorf("round-tripped SampleSize %d, want %d", got, MaxSampleSize)
	}
	if _, err := NewWithOptions(Options{MaxCounters: 64, SampleSize: MaxSampleSize + 1}); err == nil {
		t.Errorf("NewWithOptions accepted SampleSize %d", MaxSampleSize+1)
	}
}

func TestReadFromErrors(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("ReadFrom on empty reader succeeded")
	}
	if _, err := ReadFrom(bytes.NewReader([]byte("not a sketch at all........................"))); err == nil {
		t.Error("ReadFrom on garbage succeeded")
	}
}

func TestSerializedSeedIndependence(t *testing.T) {
	// Two deserializations of the same blob draw independent hash seeds;
	// merging them must still be correct.
	s := mustNew(t, Options{MaxCounters: 64, Seed: 7})
	for i := int64(0); i < 5000; i++ {
		_ = s.Update(i%100, 5)
	}
	blob := s.Serialize()
	a, err := Deserialize(blob)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Deserialize(blob)
	if err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	if a.StreamWeight() != 2*s.StreamWeight() {
		t.Errorf("merged N %d, want %d", a.StreamWeight(), 2*s.StreamWeight())
	}
	// Each item's truth doubles; bounds must bracket it.
	for i := int64(0); i < 100; i++ {
		truth := 2 * int64(5000/100) * 5
		if lb, ub := a.LowerBound(i), a.UpperBound(i); lb > truth || ub < truth {
			t.Fatalf("item %d: [%d, %d] misses %d", i, lb, ub, truth)
		}
	}
}
