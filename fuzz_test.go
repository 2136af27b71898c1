// Native fuzz targets for the parsers and decoders that accept untrusted
// bytes, driven through the public API: the fast-path sketch wire format,
// the generic-items wire format, and the stream file readers. Each runs
// its seed corpus under plain `go test` and can be expanded with
// `go test -fuzz=FuzzName`.
package repro_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/freq"
	"repro/freq/store"
	"repro/freq/stream"
)

// FuzzSketchUnmarshal: UnmarshalBinary must never panic and, when it
// accepts bytes, the result must re-marshal to a decodable sketch with
// the same queryable state. Every rejection must match freq.ErrCorrupt.
func FuzzSketchUnmarshal(f *testing.F) {
	seed, err := freq.New[int64](64, freq.WithSeed(1))
	if err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		_ = seed.Update(i%80, i%13+1)
	}
	blob, err := seed.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	empty, err := freq.New[int64](16)
	if err != nil {
		f.Fatal(err)
	}
	blob, err = empty.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x31, 0x53, 0x49, 0x46}, 20))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := freq.New[int64](16)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, freq.ErrCorrupt) {
				t.Fatalf("rejection not ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted: must be internally consistent and round-trip stable.
		if s.NumActive() > s.MaxCounters()+1 {
			t.Fatalf("accepted sketch overfull: %d > %d", s.NumActive(), s.MaxCounters())
		}
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		again, err := freq.New[int64](16)
		if err != nil {
			t.Fatal(err)
		}
		if err := again.UnmarshalBinary(blob); err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if again.StreamWeight() != s.StreamWeight() || again.MaximumError() != s.MaximumError() ||
			again.NumActive() != s.NumActive() {
			t.Fatal("round trip drifted")
		}
		// The sketch must stay usable.
		if err := s.Update(42, 7); err != nil {
			t.Fatalf("accepted sketch unusable: %v", err)
		}
	})
}

// FuzzSketchReadFrom covers the bulk deserialize path end to end: the
// streaming decoder (pooled body buffer + direct-insert table load) and
// the receiver-reuse decode of UnmarshalBinary, which must agree with
// each other on every accepted input and reject with ErrCorrupt (or a
// truncation error) otherwise. The reused receiver must survive any
// rejection still usable.
func FuzzSketchReadFrom(f *testing.F) {
	seed, err := freq.New[int64](64, freq.WithSeed(2))
	if err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 2000; i++ {
		_ = seed.Update(i%150, i%11+1)
	}
	blob, err := seed.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)-1])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x31, 0x53, 0x49, 0x46}, 20))

	reused, err := freq.New[int64](16)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := freq.New[int64](16)
		if err != nil {
			t.Fatal(err)
		}
		n, streamErr := s.ReadFrom(bytes.NewReader(data))
		if n > int64(len(data)) {
			t.Fatalf("ReadFrom consumed %d of %d bytes", n, len(data))
		}
		inPlaceErr := reused.UnmarshalBinary(data)
		if streamErr != nil {
			// The reused receiver must stay usable whatever happened.
			if err := reused.Update(7, 1); err != nil {
				t.Fatalf("receiver unusable after rejection: %v", err)
			}
			return
		}
		// Accepted by the stream decoder: the exact same bytes must be
		// accepted in place (ReadFrom consumed all of data iff the blob
		// had no trailing bytes; UnmarshalBinary demands exactly one blob).
		if n == int64(len(data)) {
			if inPlaceErr != nil {
				t.Fatalf("stream decode accepted, in-place decode rejected: %v", inPlaceErr)
			}
			if s.StreamWeight() != reused.StreamWeight() || s.NumActive() != reused.NumActive() ||
				s.MaximumError() != reused.MaximumError() {
				t.Fatal("stream and in-place decodes disagree")
			}
		}
		if s.NumActive() > s.MaxCounters()+1 {
			t.Fatalf("accepted sketch overfull: %d > %d", s.NumActive(), s.MaxCounters())
		}
		// Round trip through the alloc-free append path.
		buf, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		again, err := freq.New[int64](16)
		if err != nil {
			t.Fatal(err)
		}
		if err := again.UnmarshalBinary(buf); err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if again.StreamWeight() != s.StreamWeight() || again.NumActive() != s.NumActive() {
			t.Fatal("round trip drifted")
		}
	})
}

// FuzzStringSketchUnmarshal covers the generic wire format with the
// built-in string codec.
func FuzzStringSketchUnmarshal(f *testing.F) {
	s, err := freq.New[string](32)
	if err != nil {
		f.Fatal(err)
	}
	_ = s.Update("hello", 10)
	_ = s.Update("", 3)
	blob, err := s.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte{0x32, 0x54, 0x49, 0x46, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := freq.New[string](32)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, freq.ErrCorrupt) {
				t.Fatalf("rejection not ErrCorrupt: %v", err)
			}
			return
		}
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		again, err := freq.New[string](32)
		if err != nil {
			t.Fatal(err)
		}
		if err := again.UnmarshalBinary(blob); err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if again.StreamWeight() != s.StreamWeight() || again.NumActive() != s.NumActive() {
			t.Fatal("round trip drifted")
		}
	})
}

// FuzzReadText: the text stream parser must never panic and must either
// reject input or produce updates that re-encode losslessly.
func FuzzReadText(f *testing.F) {
	f.Add([]byte("1 2\n3 4\n"))
	f.Add([]byte("# comment\n\n 7\n"))
	f.Add([]byte("-9223372036854775808 9223372036854775807\n"))
	f.Add([]byte("garbage here\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		updates, err := stream.ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := stream.WriteText(&buf, updates); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := stream.ReadText(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(again) != len(updates) {
			t.Fatalf("round trip length %d != %d", len(again), len(updates))
		}
		for i := range updates {
			if again[i] != updates[i] {
				t.Fatalf("record %d drifted: %v != %v", i, again[i], updates[i])
			}
		}
	})
}

// FuzzReadBinary covers the binary stream format.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	_ = stream.WriteBinary(&buf, []stream.Update{{Item: 1, Weight: 2}, {Item: -3, Weight: 4}})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		updates, err := stream.ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := stream.WriteBinary(&out, updates); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := stream.ReadBinary(&out)
		if err != nil || len(again) != len(updates) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzStorePartitionDecode covers the durable store's untrusted-bytes
// surface: arbitrary bytes posing as a partition file must never panic
// the scanner, and whatever blocks survive the scan must decode (LZ
// tokens included) and merge without panicking. The raw LZ decoder is
// fuzzed on the same input.
func FuzzStorePartitionDecode(f *testing.F) {
	// Seed with a real two-slot partition so the fuzzer starts from a
	// structurally valid file and mutates inward.
	seedDir := f.TempDir()
	st, err := store.Open[int64](seedDir)
	if err != nil {
		f.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	for s := 0; s < 2; s++ {
		sk, err := freq.New[int64](256)
		if err != nil {
			f.Fatal(err)
		}
		for i := int64(0); i < 200; i++ {
			_ = sk.Update(i%40, i%7+1)
		}
		from := base.Add(time.Duration(s) * time.Second)
		if err := st.AppendSlot(freq.NewView(sk), from, from.Add(time.Second)); err != nil {
			f.Fatal(err)
		}
	}
	parts, err := filepath.Glob(filepath.Join(seedDir, "part-*.fps"))
	if err != nil || len(parts) != 1 {
		f.Fatalf("seed partition: %v (err %v)", parts, err)
	}
	seed, err := os.ReadFile(parts[0])
	if err != nil {
		f.Fatal(err)
	}
	seedName := filepath.Base(parts[0])
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add([]byte("FPS1"))
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The raw LZ decoder on arbitrary bytes: error or success, never
		// a panic, never unbounded output relative to input.
		if dec, err := store.NewLZ().Decode(nil, data); err == nil && len(data) > 0 {
			// Max expansion is lzMaxMatch bytes per 3-byte token.
			if len(dec) > 131*len(data) {
				t.Fatalf("lz decode expanded %d bytes to %d", len(data), len(dec))
			}
		}

		// The partition scanner + query path on the same bytes posing as
		// a partition file (named so the scan adopts it).
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, seedName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open[int64](dir)
		if err != nil {
			return // structurally rejected: fine
		}
		v, err := st.Query(base.Add(-time.Hour), base.Add(time.Hour))
		if err == nil {
			_ = v.StreamWeight()
			_ = v.Query().Limit(5).Collect()
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close after fuzzed open: %v", err)
		}
	})
}
