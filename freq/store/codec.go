package store

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Codec is the pluggable block compression of the partition format:
// Encode appends the compressed form of src to dst, Decode appends the
// decompressed form. Every block records the codec that encoded it, so
// a store can change codecs without rewriting history and a reader
// needs no configuration to decode. IDs are part of the on-disk format
// and must never be reassigned.
//
// Implementations must be safe for concurrent use: a store's default
// history and its tenant histories encode through the one configured
// codec under locks of their own, and range queries decode on parallel
// workers. The built-in codecs are: LZ guards its match table inside
// Encode, and both decode statelessly.
type Codec interface {
	// ID is the codec's wire identifier, stamped into each block header.
	ID() uint8
	// Name is the codec's human name ("none", "lz"), used by flags and
	// the manifest.
	Name() string
	// Encode appends the encoded form of src to dst and returns the
	// extended slice.
	Encode(dst, src []byte) []byte
	// Decode appends the decoded form of src to dst and returns the
	// extended slice. Corrupt input returns an error; Decode must never
	// panic on arbitrary bytes.
	Decode(dst, src []byte) ([]byte, error)
}

// Codec IDs baked into the block format.
const (
	codecIDNone uint8 = 0
	codecIDLZ   uint8 = 1
)

// None is the identity codec: blocks are stored as the raw sketch wire
// format. The store also falls back to it per block whenever the
// configured codec fails to shrink the payload.
type None struct{}

func (None) ID() uint8                              { return codecIDNone }
func (None) Name() string                           { return "none" }
func (None) Encode(dst, src []byte) []byte          { return append(dst, src...) }
func (None) Decode(dst, src []byte) ([]byte, error) { return append(dst, src...), nil }

// lzMinMatch is the shortest back-reference worth encoding: a match
// token costs 3 bytes, so 4 is the first length that wins.
const lzMinMatch = 4

// lzMaxMatch is the longest match one token encodes (7 bits of length
// above lzMinMatch); longer matches simply emit consecutive tokens.
const lzMaxMatch = lzMinMatch + 0x7e // 130

// lzTableBits sizes the encoder's match-finder hash table.
const lzTableBits = 14

// LZ is the built-in byte-oriented LZ77 codec (snappy/lz4-style greedy
// parsing, 64 KiB window): a token stream of literal runs and
// back-references.
//
//	control byte c < 0x80:  literal run of c+1 bytes follows
//	control byte c >= 0x80: copy (c-0x80)+4 bytes from a 2-byte
//	                        little-endian offset back (1..65535)
//
// Sketch payloads compress well under it — the serialized table is runs
// of small-magnitude little-endian counters whose high zero bytes
// repeat at stride 8. The encoder keeps one hash table per codec
// instance (construct with NewLZ; the zero value is valid but allocates
// its table on first use), so steady-state appends allocate nothing;
// concurrent Encode calls take turns on it. Decode is stateless and
// strict: any out-of-range offset or truncated token is an error, never
// a panic. It copies short literal runs and matches reaching back a word
// or more a machine word at a time, which is most of a sketch payload's
// tokens (matches average about 6 bytes).
type LZ struct {
	mu    sync.Mutex
	table *[1 << lzTableBits]int32
}

// NewLZ returns an LZ codec with its match-finder table preallocated.
func NewLZ() *LZ { return &LZ{table: new([1 << lzTableBits]int32)} }

func (*LZ) ID() uint8    { return codecIDLZ }
func (*LZ) Name() string { return "lz" }

// lzHash hashes a 4-byte window into the match table.
func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzTableBits)
}

// Encode appends the LZ encoding of src to dst.
func (c *LZ) Encode(dst, src []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.table == nil {
		c.table = new([1 << lzTableBits]int32)
	}
	// Entries store position+1; the zero value means "empty", so the
	// table needs no clearing between blocks — stale entries (including
	// positions beyond this src) are validated before use.
	table := c.table
	var litStart int
	emitLiterals := func(end int) []byte {
		for litStart < end {
			run := end - litStart
			if run > 128 {
				run = 128
			}
			dst = append(dst, byte(run-1))
			dst = append(dst, src[litStart:litStart+run]...)
			litStart += run
		}
		return dst
	}
	i := 0
	for i+lzMinMatch <= len(src) {
		v := binary.LittleEndian.Uint32(src[i:])
		h := lzHash(v)
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || cand >= i || i-cand > 0xffff || binary.LittleEndian.Uint32(src[cand:]) != v {
			i++
			continue
		}
		// Extend the match forward.
		length := lzMinMatch
		for i+length < len(src) && length < lzMaxMatch && src[cand+length] == src[i+length] {
			length++
		}
		dst = emitLiterals(i)
		dst = append(dst, byte(0x80+length-lzMinMatch), byte(i-cand), byte((i-cand)>>8))
		i += length
		litStart = i
	}
	dst = emitLiterals(len(src))
	return dst
}

// lzWord is the width of the decoder's word copies.
const lzWord = 8

// lzMaxDecodedLen bounds what an LZ token stream of n bytes decodes to:
// at most lzMaxMatch bytes per 3-byte match token.
func lzMaxDecodedLen(n int) int { return n/3*lzMaxMatch + lzMaxMatch }

// Decode appends the decoded form of src to dst, validating every token
// against the bytes produced so far. Literal runs of up to 2 words, and
// matches reaching back at least a word (so that no word read overlaps
// the bytes it writes), copy a machine word at a time wherever dst has
// the spare capacity for the last word's overshoot and a literal's
// words lie within src. The overshoot lands in dst's spare capacity,
// beyond the returned length: the next token overwrites it, and after
// the last token up to 15 bytes there hold garbage. Shorter offsets,
// the run-length case, copy byte by byte. A caller that knows the
// decoded length should give dst that much capacity, so that only the
// last few tokens copy bytes.
func (*LZ) Decode(dst, src []byte) ([]byte, error) {
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
			if d := len(dst); run <= 2*lzWord && i+2*lzWord <= len(src) && d+2*lzWord <= cap(dst) {
				out := dst[d : d+2*lzWord]
				binary.LittleEndian.PutUint64(out, binary.LittleEndian.Uint64(src[i:]))
				binary.LittleEndian.PutUint64(out[lzWord:], binary.LittleEndian.Uint64(src[i+lzWord:]))
				dst = dst[:d+run]
			} else {
				dst = append(dst, src[i:i+run]...)
			}
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
		d := len(dst)
		pos := d - off
		if off >= lzWord && d+length+lzWord <= cap(dst) {
			out := dst[:d+length+lzWord]
			for j := 0; j < length; j += lzWord {
				binary.LittleEndian.PutUint64(out[d+j:], binary.LittleEndian.Uint64(out[pos+j:]))
			}
			dst = dst[:d+length]
			continue
		}
		// Byte-at-a-time copy: matches may overlap their own output
		// (off < length is the run-length case and is legal).
		for j := 0; j < length; j++ {
			dst = append(dst, dst[pos+j])
		}
	}
	return dst, nil
}

// CodecByName resolves a codec by its human name — the flag-parsing
// helper ("none", "lz").
func CodecByName(name string) (Codec, error) {
	switch name {
	case "none", "raw", "":
		return None{}, nil
	case "lz":
		return NewLZ(), nil
	}
	return nil, fmt.Errorf("store: unknown codec %q (want none or lz)", name)
}
