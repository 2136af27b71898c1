package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/freq"
)

// lzRoundTrip encodes src with a fresh LZ codec and decodes it back.
func lzRoundTrip(t *testing.T, src []byte) {
	t.Helper()
	c := NewLZ()
	enc := c.Encode(nil, src)
	dec, err := c.Decode(nil, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(dec))
	}
}

func TestLZRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abcabcabcabcabcabc"),
		bytes.Repeat([]byte{0}, 10_000),
		bytes.Repeat([]byte("0123456789abcdef"), 512),
	}
	// Sketch-like payload: little-endian counters with high zero bytes.
	sketchy := make([]byte, 8*1024)
	for i := 0; i < len(sketchy); i += 8 {
		sketchy[i] = byte(rng.Intn(256))
		sketchy[i+1] = byte(rng.Intn(4))
	}
	cases = append(cases, sketchy)
	// Incompressible noise.
	noise := make([]byte, 4096)
	rng.Read(noise)
	cases = append(cases, noise)
	// Random run-structured data.
	for trial := 0; trial < 50; trial++ {
		var b []byte
		for len(b) < 2000 {
			if rng.Intn(2) == 0 {
				b = append(b, bytes.Repeat([]byte{byte(rng.Intn(4))}, rng.Intn(200)+1)...)
			} else {
				chunk := make([]byte, rng.Intn(50)+1)
				rng.Read(chunk)
				b = append(b, chunk...)
			}
		}
		cases = append(cases, b)
	}
	for i, src := range cases {
		t.Logf("case %d: %d bytes", i, len(src))
		lzRoundTrip(t, src)
	}
}

// TestLZCompresses pins that the codec actually wins on the payloads it
// exists for.
func TestLZCompresses(t *testing.T) {
	src := bytes.Repeat([]byte{1, 2, 3, 4, 0, 0, 0, 0}, 1024)
	enc := NewLZ().Encode(nil, src)
	if len(enc) >= len(src)/2 {
		t.Fatalf("repetitive payload barely compressed: %d -> %d", len(src), len(enc))
	}
}

// TestLZEncoderReuse checks that one encoder instance stays correct
// across blocks of different sizes (stale hash-table entries from a
// larger earlier block must be validated, not trusted).
func TestLZEncoderReuse(t *testing.T) {
	c := NewLZ()
	rng := rand.New(rand.NewSource(2))
	big := make([]byte, 64*1024)
	rng.Read(big)
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(len(big)) + 1
		src := big[:n]
		enc := c.Encode(nil, src)
		dec, err := c.Decode(nil, enc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("trial %d: mismatch at size %d", trial, n)
		}
	}
}

// TestLZDecodeRejectsCorrupt feeds the decoder hostile token streams;
// every one must error, never panic, never read out of bounds.
func TestLZDecodeRejectsCorrupt(t *testing.T) {
	var lz LZ
	bad := [][]byte{
		{0x05},                  // literal run of 6 with no bytes
		{0x7f, 1, 2, 3},         // literal run of 128 overruns
		{0x80},                  // match token with no offset
		{0x80, 1},               // match token with half an offset
		{0x80, 0, 0},            // offset 0
		{0x80, 5, 0},            // offset 5 with nothing decoded
		{0x00, 'x', 0x80, 2, 0}, // offset 2 with 1 byte decoded
		{0x00, 'x', 0xff, 0, 1}, // offset 256 with 1 byte decoded
	}
	for i, src := range bad {
		if _, err := lz.Decode(nil, src); err == nil {
			t.Fatalf("case %d: corrupt stream decoded without error", i)
		}
	}
	// A valid overlapping match (RLE case) must still work.
	dec, err := lz.Decode(nil, []byte{0x00, 'x', 0x80 + (8 - lzMinMatch), 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if string(dec) != "xxxxxxxxx" {
		t.Fatalf("overlap copy: got %q", dec)
	}
}

// TestLZDecodeAppends checks the appending contract: decoded output
// lands after existing dst bytes and offsets are relative to this
// stream only.
func TestLZDecodeAppends(t *testing.T) {
	var lz LZ
	prefix := []byte("prefix")
	// Stream: literal 'a', then a match reaching back 1 — legal within
	// the stream. A match reaching back 2 would escape into prefix and
	// must fail.
	dec, err := lz.Decode(prefix, []byte{0x00, 'a', 0x80, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if string(dec) != "prefixaaaaa" {
		t.Fatalf("append decode: got %q", dec)
	}
	if _, err := lz.Decode([]byte("prefix"), []byte{0x00, 'a', 0x80, 2, 0}); err == nil {
		t.Fatal("match escaping into pre-existing dst bytes must be rejected")
	}
}

func TestCodecByName(t *testing.T) {
	for name, wantID := range map[string]uint8{"none": 0, "raw": 0, "": 0, "lz": 1} {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if c.ID() != wantID {
			t.Fatalf("%q: id %d, want %d", name, c.ID(), wantID)
		}
	}
	if _, err := CodecByName("zstd"); err == nil {
		t.Fatal("unknown codec name accepted")
	}
}

// lzDecodeBytes is the byte-at-a-time decoder that LZ.Decode's word
// copies replaced, kept as the reference they are checked against.
func lzDecodeBytes(dst, src []byte) ([]byte, error) {
	base := len(dst)
	i := 0
	for i < len(src) {
		c := src[i]
		i++
		if c < 0x80 {
			run := int(c) + 1
			if i+run > len(src) {
				return dst, fmt.Errorf("store: lz literal run of %d overruns input", run)
			}
			dst = append(dst, src[i:i+run]...)
			i += run
			continue
		}
		if i+2 > len(src) {
			return dst, fmt.Errorf("store: lz match token truncated")
		}
		length := int(c-0x80) + lzMinMatch
		off := int(src[i]) | int(src[i+1])<<8
		i += 2
		if off == 0 || off > len(dst)-base {
			return dst, fmt.Errorf("store: lz match offset %d outside %d decoded bytes", off, len(dst)-base)
		}
		pos := len(dst) - off
		for j := 0; j < length; j++ {
			dst = append(dst, dst[pos+j])
		}
	}
	return dst, nil
}

// randomTokens returns a token stream of n tokens: literal runs, mostly
// short, and matches, a third of them overlapping (offsets 1-7), the
// rest reaching back up to 300 bytes. With bad set, an offset may point
// before the stream's start and the stream may end mid-token.
func randomTokens(rng *rand.Rand, n int, bad bool) []byte {
	var src []byte
	produced := 0
	for t := 0; t < n; t++ {
		if produced == 0 || rng.Intn(2) == 0 {
			run := 1 + rng.Intn(20)
			if rng.Intn(8) == 0 {
				run = 1 + rng.Intn(128)
			}
			src = append(src, byte(run-1))
			for range run {
				src = append(src, byte(rng.Intn(256)))
			}
			produced += run
			continue
		}
		length := lzMinMatch + rng.Intn(lzMaxMatch-lzMinMatch+1)
		off := 1 + rng.Intn(min(produced, 7))
		if rng.Intn(3) != 0 {
			off = 1 + rng.Intn(min(produced, 300))
		}
		if bad && rng.Intn(10) == 0 {
			off = produced + 1 + rng.Intn(4)
		}
		src = append(src, byte(0x80+length-lzMinMatch), byte(off), byte(off>>8))
		produced += length
	}
	if bad && len(src) > 0 && rng.Intn(2) == 0 {
		src = src[:len(src)-1-rng.Intn(min(len(src), 3))]
	}
	return src
}

// sketchPayloads returns the encodings of full k = 4096 sketches over
// Zipf streams, the blocks a store decodes.
func sketchPayloads(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	for seed := uint64(1); seed <= 3; seed++ {
		sk, err := freq.New[int64](4096, freq.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		z := rand.NewZipf(rand.New(rand.NewSource(int64(seed))), 1.1, 1, 1<<20)
		for range 1 << 16 {
			if err := sk.Update(int64(z.Uint64()), 1+int64(z.Uint64()%100)); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blob)
	}
	return out
}

// TestLZDecodeMatchesByteReference: the word-copy decoder returns what
// the byte-at-a-time reference does, output and error alike, on random
// and corrupt token streams, on real sketch payloads, on literal runs
// ending within a word of the end of src, and into a dst holding a
// prefix, with no spare capacity, exactly the decoded length, or more.
func TestLZDecodeMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var streams [][]byte
	for trial := 0; trial < 300; trial++ {
		streams = append(streams, randomTokens(rng, 1+rng.Intn(60), trial%3 == 0))
	}
	for trial := 0; trial < 100; trial++ {
		noise := make([]byte, rng.Intn(200))
		rng.Read(noise)
		streams = append(streams, noise)
	}
	for _, blob := range sketchPayloads(t) {
		streams = append(streams, NewLZ().Encode(nil, blob))
	}
	// A match, then a final literal run of every length up to 2 words
	// and a little more, so that the run ends 0-20 bytes short of where
	// the word copy would read to.
	for run := 1; run <= 20; run++ {
		s := []byte{0x07, 1, 2, 3, 4, 5, 6, 7, 8, 0x80 + 6, 8, 0, byte(run - 1)}
		for j := range run {
			s = append(s, byte(j))
		}
		streams = append(streams, s)
	}
	var lz LZ
	for i, src := range streams {
		want, wantErr := lzDecodeBytes(nil, src)
		for _, prefix := range []int{0, 1, 7, 8, 13} {
			for _, spare := range []int{0, len(want), len(want) + 3*lzWord, 4096} {
				dst := make([]byte, prefix, prefix+spare)
				for j := range dst {
					dst[j] = byte(0xa0 + j)
				}
				ref, refErr := lzDecodeBytes(append([]byte(nil), dst...), src)
				got, err := lz.Decode(dst, src)
				if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
					t.Fatalf("stream %d, prefix %d, spare %d: error %v, reference %v", i, prefix, spare, err, refErr)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("stream %d, prefix %d, spare %d: %d bytes differ from the reference's %d", i, prefix, spare, len(got), len(ref))
				}
				if (refErr == nil) != (wantErr == nil) {
					t.Fatalf("stream %d: a prefix changed the reference's verdict", i)
				}
			}
		}
	}
}
