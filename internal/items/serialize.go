package items

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
)

// Serialization for the generic sketch follows the DataSketches
// ItemsSketch pattern: the caller supplies a SerDe for the item type and
// the sketch handles the envelope. Format (little endian): magic,
// version, k, quantile, sample size, stream weight, offset, counter
// count, then per counter a length-prefixed item encoding and the value.

// SerDe encodes and decodes items of type T.
type SerDe[T comparable] interface {
	// Marshal appends the encoding of v to dst and returns the extended
	// slice.
	Marshal(dst []byte, v T) []byte
	// Unmarshal decodes one item from data (exactly len(data) bytes).
	Unmarshal(data []byte) (T, error)
}

// StringSerDe encodes strings as raw bytes.
type StringSerDe struct{}

// Marshal appends the raw bytes of v.
func (StringSerDe) Marshal(dst []byte, v string) []byte { return append(dst, v...) }

// Unmarshal copies the bytes into a string.
func (StringSerDe) Unmarshal(data []byte) (string, error) { return string(data), nil }

// Int64SerDe encodes int64 items in 8 little-endian bytes.
type Int64SerDe struct{}

// Marshal appends the 8-byte encoding of v.
func (Int64SerDe) Marshal(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

// Unmarshal decodes an 8-byte value.
func (Int64SerDe) Unmarshal(data []byte) (int64, error) {
	if len(data) != 8 {
		return 0, fmt.Errorf("items: int64 encoding has %d bytes", len(data))
	}
	return int64(binary.LittleEndian.Uint64(data)), nil
}

const (
	itemsMagic   uint32 = 0x46495432 // "FIT2"
	itemsVersion uint8  = 1
)

// ErrCorrupt indicates structurally invalid serialized data.
var ErrCorrupt = errors.New("items: corrupt serialized sketch")

// Serialize encodes the sketch using serde for item payloads.
func Serialize[T comparable](s *Sketch[T], serde SerDe[T]) []byte {
	buf := make([]byte, 0, 64+24*len(s.counters))
	buf = binary.LittleEndian.AppendUint32(buf, itemsMagic)
	buf = append(buf, itemsVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.k))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.quantile))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.sampleSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.streamN))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.offset))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.counters)))
	for item, v := range s.counters {
		start := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, 0) // length placeholder
		buf = serde.Marshal(buf, item)
		binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// headerLen is the fixed portion of the wire format preceding counters.
const headerLen = 4 + 1 + 4 + 8 + 4 + 8 + 8 + 4

// WriteTo encodes the sketch to w and reports the bytes written.
func WriteTo[T comparable](s *Sketch[T], serde SerDe[T], w io.Writer) (int64, error) {
	n, err := w.Write(Serialize(s, serde))
	return int64(n), err
}

// ReadFrom decodes exactly one serialized sketch from r, consuming only
// the sketch's own bytes, and reports the bytes actually read (including
// partial reads on error, per the io.ReaderFrom convention). The
// per-counter length prefixes make the format streamable without
// buffering past the final counter.
func ReadFrom[T comparable](r io.Reader, serde SerDe[T]) (*Sketch[T], int64, error) {
	var consumed int64
	buf := make([]byte, headerLen)
	n, err := io.ReadFull(r, buf)
	consumed += int64(n)
	if err != nil {
		return nil, consumed, err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != itemsMagic {
		return nil, consumed, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	numActive := int(binary.LittleEndian.Uint32(buf[37:]))
	k := int(binary.LittleEndian.Uint32(buf[5:]))
	if numActive < 0 || numActive > k+1 {
		return nil, consumed, fmt.Errorf("%w: invalid header", ErrCorrupt)
	}
	var lenBuf [4]byte
	for i := 0; i < numActive; i++ {
		n, err = io.ReadFull(r, lenBuf[:])
		consumed += int64(n)
		if err != nil {
			return nil, consumed, err
		}
		itemLen := int(binary.LittleEndian.Uint32(lenBuf[:]))
		if itemLen < 0 || itemLen > 1<<24 {
			return nil, consumed, fmt.Errorf("%w: bad item length %d at counter %d", ErrCorrupt, itemLen, i)
		}
		rec := make([]byte, itemLen+8)
		n, err = io.ReadFull(r, rec)
		consumed += int64(n)
		if err != nil {
			return nil, consumed, err
		}
		buf = append(buf, lenBuf[:]...)
		buf = append(buf, rec...)
	}
	s, err := Deserialize(buf, serde)
	return s, consumed, err
}

// Deserialize reconstructs a sketch from bytes produced by Serialize with
// a compatible SerDe.
func Deserialize[T comparable](data []byte, serde SerDe[T]) (*Sketch[T], error) {
	const header = headerLen
	if len(data) < header {
		return nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(data[0:]) != itemsMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if data[4] != itemsVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCorrupt, data[4])
	}
	k := int(binary.LittleEndian.Uint32(data[5:]))
	quantile := math.Float64frombits(binary.LittleEndian.Uint64(data[9:]))
	sampleSize := int(binary.LittleEndian.Uint32(data[17:]))
	streamN := int64(binary.LittleEndian.Uint64(data[21:]))
	offset := int64(binary.LittleEndian.Uint64(data[29:]))
	numActive := int(binary.LittleEndian.Uint32(data[37:]))
	if k < 1 || quantile < 0 || quantile >= 1 || sampleSize < 1 || sampleSize > core.MaxSampleSize ||
		streamN < 0 || offset < 0 || numActive < 0 || numActive > k+1 {
		return nil, fmt.Errorf("%w: invalid header", ErrCorrupt)
	}
	s, err := NewWithQuantile[T](k, quantile)
	if err != nil {
		return nil, err
	}
	s.sampleSize = sampleSize
	if sampleSize != len(s.sampleBuf) {
		s.sampleBuf = make([]int64, sampleSize)
	}
	p := header
	for i := 0; i < numActive; i++ {
		if p+4 > len(data) {
			return nil, fmt.Errorf("%w: truncated at counter %d", ErrCorrupt, i)
		}
		n := int(binary.LittleEndian.Uint32(data[p:]))
		p += 4
		if n < 0 || p+n+8 > len(data) {
			return nil, fmt.Errorf("%w: bad item length %d at counter %d", ErrCorrupt, n, i)
		}
		item, err := serde.Unmarshal(data[p : p+n])
		if err != nil {
			return nil, fmt.Errorf("items: counter %d: %w", i, err)
		}
		p += n
		v := int64(binary.LittleEndian.Uint64(data[p:]))
		p += 8
		if v <= 0 {
			return nil, fmt.Errorf("%w: non-positive counter %d", ErrCorrupt, v)
		}
		if _, dup := s.counters[item]; dup {
			return nil, fmt.Errorf("%w: duplicate item at counter %d", ErrCorrupt, i)
		}
		s.counters[item] = v
	}
	if p != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-p)
	}
	s.streamN = streamN
	s.offset = offset
	return s, nil
}
