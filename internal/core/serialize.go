package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/hashmap"
	"repro/internal/xrand"
)

// Serialization implements the geographically-distributed scenario of §3:
// summarize locally, ship only the summary, merge centrally. The format is
// a fixed little-endian header followed by the active (item, counter)
// pairs; deserialized sketches answer every query identically to the
// original and can keep absorbing updates and merges.
//
// Both directions run on the bulk engine: AppendTo encodes into a
// caller-supplied buffer (WriteTo reuses a pooled one, so the steady
// state allocates nothing), and the decoder gathers the payload into
// pooled buffers and loads the table with one pipelined
// InsertUniqueChecked instead of a probe per pair — the checked variant
// rejects duplicate items inline, at one key compare per probed slot.

const (
	serialMagic   uint32 = 0x46495331 // "FIS1"
	serialVersion uint8  = 1
	headerBytes          = 4 + 1 + 1 + 1 + 1 + 4 + 8 + 8 + 8 + 4 // through numActive
)

var (
	// ErrBadMagic indicates the bytes do not start with a frequent-items
	// sketch header.
	ErrBadMagic = errors.New("core: not a serialized frequent-items sketch")
	// ErrBadVersion indicates an unsupported serialization version.
	ErrBadVersion = errors.New("core: unsupported serialization version")
	// ErrCorrupt indicates a structurally invalid serialized sketch.
	ErrCorrupt = errors.New("core: corrupt serialized sketch")
)

// SerializedSizeBytes returns the exact encoding length of the sketch.
func (s *Sketch) SerializedSizeBytes() int {
	return headerBytes + 16*s.NumActive()
}

// AppendTo appends the sketch's encoding to buf and returns the extended
// slice, growing it at most once — the allocation-free serialization
// primitive behind Serialize, WriteTo, and the wire server's SNAP path.
func (s *Sketch) AppendTo(buf []byte) []byte {
	buf = slices.Grow(buf, s.SerializedSizeBytes())
	buf = binary.LittleEndian.AppendUint32(buf, serialMagic)
	buf = append(buf, serialVersion)
	var flags uint8
	if s.IsEmpty() {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = append(buf, uint8(s.lgMaxLength), uint8(0) /* reserved */)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.sampleSize))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.quantile))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.streamN))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.offset))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.NumActive()))
	s.hm.Range(func(key, value int64) bool {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(key))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(value))
		return true
	})
	return buf
}

// Serialize encodes the sketch to a new byte slice.
func (s *Sketch) Serialize() []byte {
	return s.AppendTo(make([]byte, 0, s.SerializedSizeBytes()))
}

// WriteTo encodes the sketch to w, implementing io.WriterTo. The
// encoding buffer is pooled: steady-state calls allocate nothing.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	bp := getBytes(0)
	buf := s.AppendTo((*bp)[:0])
	n, err := w.Write(buf)
	*bp = buf
	putBytes(bp)
	return int64(n), err
}

// serialHeader is the decoded fixed-size header, validated field by
// field before any payload work happens.
type serialHeader struct {
	flags      uint8
	lgMax      int
	sampleSize int
	quantile   float64
	streamN    int64
	offset     int64
	numActive  int
}

// parseHeader decodes and validates the first headerBytes of data, which
// must be at least that long.
func parseHeader(data []byte) (serialHeader, error) {
	var h serialHeader
	if binary.LittleEndian.Uint32(data[0:]) != serialMagic {
		return h, ErrBadMagic
	}
	if data[4] != serialVersion {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, data[4])
	}
	h.flags = data[5]
	h.lgMax = int(data[6])
	h.sampleSize = int(binary.LittleEndian.Uint32(data[8:]))
	h.quantile = math.Float64frombits(binary.LittleEndian.Uint64(data[12:]))
	h.streamN = int64(binary.LittleEndian.Uint64(data[20:]))
	h.offset = int64(binary.LittleEndian.Uint64(data[28:]))
	h.numActive = int(binary.LittleEndian.Uint32(data[36:]))

	if h.lgMax < hashmap.MinLgLength || h.lgMax > hashmap.MaxLgLength {
		return h, fmt.Errorf("%w: lgMaxLength %d", ErrCorrupt, h.lgMax)
	}
	// The quantile check is phrased positively so NaN (which fails every
	// comparison) is rejected rather than slipping through to panic in
	// the first decrement's quantile selection.
	if h.sampleSize < 1 || h.sampleSize > MaxSampleSize || !(h.quantile >= 0 && h.quantile < 1) ||
		h.streamN < 0 || h.offset < 0 || h.numActive < 0 {
		return h, fmt.Errorf("%w: invalid header fields", ErrCorrupt)
	}
	if maxCounters := h.maxCounters(); h.numActive > maxCounters+1 {
		return h, fmt.Errorf("%w: %d active counters exceed capacity %d", ErrCorrupt, h.numActive, maxCounters)
	}
	if h.flags&1 != 0 && (h.numActive != 0 || h.streamN != 0) {
		return h, fmt.Errorf("%w: empty flag with non-empty payload", ErrCorrupt)
	}
	// Counters and decrements account for stream weight, so a sketch of
	// weight 0 holds neither; accepting one would yield a sketch whose
	// own encoding (empty flag set) this decoder rejects.
	if h.streamN == 0 && (h.numActive != 0 || h.offset != 0) {
		return h, fmt.Errorf("%w: stream weight 0 with %d counters and offset %d", ErrCorrupt, h.numActive, h.offset)
	}
	return h, nil
}

func (h serialHeader) maxCounters() int {
	return int(float64(int(1)<<h.lgMax) * hashmap.LoadFactor)
}

// Deserialize reconstructs a sketch from bytes produced by Serialize. The
// reconstructed sketch draws a fresh hash seed, which is desirable: merges
// of independently deserialized sketches never share a hash function
// (§3.2 note).
func Deserialize(data []byte) (*Sketch, error) {
	s := new(Sketch)
	if err := DeserializeInto(s, data); err != nil {
		return nil, err
	}
	return s, nil
}

// DeserializeInto decodes one serialized sketch into dst, replacing
// dst's entire state — configuration included — and recycling dst's
// spare table and sample buffer when their shapes match, so a
// long-lived receiver (a cluster coordinator refreshing node snapshots,
// say) reaches a steady state that deserializes without allocating.
// Like Deserialize it draws a fresh hash seed. All-or-nothing: on any
// error, including corruption detected mid-payload, dst is untouched
// (the decode loads a standby table and only swaps it in on success;
// the replaced table is retained as the next decode's standby, so a
// receiver holds up to two tables).
func DeserializeInto(dst *Sketch, data []byte) error {
	h, err := parseSerialized(data)
	if err != nil {
		return err
	}
	return loadBody(dst, h, data[headerBytes:])
}

// parseSerialized decodes and validates the header of a whole encoding
// and checks that data holds exactly its counters.
func parseSerialized(data []byte) (serialHeader, error) {
	if len(data) < headerBytes {
		return serialHeader{}, ErrCorrupt
	}
	h, err := parseHeader(data)
	if err != nil {
		return h, err
	}
	if len(data) != headerBytes+16*h.numActive {
		return h, fmt.Errorf("%w: length %d, want %d", ErrCorrupt, len(data), headerBytes+16*h.numActive)
	}
	return h, nil
}

// gatherBody decodes the (item, counter) payload into a pooled buffer,
// rejecting the first non-positive counter. body must be exactly
// 16*h.numActive bytes.
func gatherBody(h serialHeader, body []byte) (*[]hashmap.Pair, error) {
	pp := getPairs(h.numActive)
	pairs := *pp
	for i := range pairs {
		key := int64(binary.LittleEndian.Uint64(body[16*i:]))
		value := int64(binary.LittleEndian.Uint64(body[16*i+8:]))
		if value <= 0 {
			putPairs(pp)
			return nil, fmt.Errorf("%w: non-positive counter %d for item %d", ErrCorrupt, value, key)
		}
		pairs[i] = hashmap.Pair{Key: key, Value: value}
	}
	return pp, nil
}

// bodyLgLength sizes the table a decoded payload loads into exactly as
// the growth path would have: the smallest power of two whose
// load-factor capacity holds the counters, capped at the configured
// maximum (these are summary counters, not stream updates — no
// decrement may fire while loading state).
func bodyLgLength(h serialHeader) int {
	return min(max(lgLengthFor(h.numActive), hashmap.MinLgLength), h.lgMax)
}

// loadBody decodes the (item, counter) payload and installs header and
// counters into dst. body must be exactly 16*h.numActive bytes.
func loadBody(dst *Sketch, h serialHeader, body []byte) error {
	pp, err := gatherBody(h, body)
	if err != nil {
		return err
	}
	pairs := *pp

	// The load goes into the spare (standby) table, never the live one,
	// so a payload rejected mid-load leaves dst exactly as it was.
	lg := bodyLgLength(h)
	seed := nextGlobalSeed()
	hm := dst.spare
	if hm != nil && hm.LgLength() == lg {
		hm.Reset(seed)
	} else {
		var err error
		hm, err = hashmap.New(lg, seed)
		if err != nil {
			// Unreachable: lg was validated against the hashmap limits.
			panic(err)
		}
	}
	key, ok := hm.InsertUniqueChecked(pairs)
	putPairs(pp)
	if !ok {
		// Keep the partially loaded standby for the next attempt (it is
		// Reset before reuse); dst itself is untouched.
		dst.spare = hm
		return fmt.Errorf("%w: duplicate item %d", ErrCorrupt, key)
	}

	dst.spare = dst.hm // may be nil for a zero-value receiver
	dst.hm = hm
	dst.lgMaxLength = h.lgMax
	dst.lgStart = hashmap.MinLgLength
	dst.offset = h.offset
	dst.streamN = h.streamN
	dst.decrements = 0
	dst.quantile = h.quantile
	dst.sampleSize = h.sampleSize
	dst.seed = seed
	dst.rng = xrand.NewSplitMix64(seed ^ 0xa0761d6478bd642f)
	if cap(dst.sampleBuf) >= h.sampleSize {
		dst.sampleBuf = dst.sampleBuf[:h.sampleSize]
	} else {
		dst.sampleBuf = make([]int64, h.sampleSize)
	}
	return nil
}

// MergeSerialized folds one encoding, as Serialize produces it, into s:
// the state DeserializeInto into a scratch sketch followed by Merge
// gives, up to the order the counters enter s's table, which changes no
// answer while s's budget admits every counter. It validates data
// exactly as DeserializeInto does — header, length, positive counters,
// no duplicate item — and returns the same errors, leaving s untouched.
// Then the parsed counters go through Merge's chunked absorb, and the
// encoding's offset and stream weight add to s's. No scratch sketch is
// built and its table is not gathered again: the duplicate check loads
// the keys into a pooled table, and the steady state allocates nothing.
//
// The counters enter in the encoder's table order. That order follows
// the encoder's hash seed, which the encoding does not record, so s
// should not share it: a range accumulator draws a random seed, as
// every sketch does unless a caller pins one.
func (s *Sketch) MergeSerialized(data []byte) error {
	h, err := parseSerialized(data)
	if err != nil {
		return err
	}
	pp, err := gatherBody(h, data[headerBytes:])
	if err != nil {
		return err
	}
	pairs := *pp
	if key, ok := distinctKeys(h, pairs); !ok {
		putPairs(pp)
		return fmt.Errorf("%w: duplicate item %d", ErrCorrupt, key)
	}
	s.absorbCounters(pairs)
	putPairs(pp)
	s.offset += h.offset
	s.streamN += h.streamN
	return nil
}

// keyTables pools the duplicate-check tables of MergeSerialized, one
// pool per table size.
var keyTables [hashmap.MaxLgLength + 1]sync.Pool

// distinctKeys reports whether pairs hold distinct keys, and if not the
// first repeated one, by loading them into a pooled table of the size
// DeserializeInto would load them into, under a fresh seed.
func distinctKeys(h serialHeader, pairs []hashmap.Pair) (int64, bool) {
	if len(pairs) < 2 {
		return 0, true
	}
	lg := bodyLgLength(h)
	pool := &keyTables[lg]
	hm, _ := pool.Get().(*hashmap.Map)
	if hm == nil {
		var err error
		if hm, err = hashmap.New(lg, nextGlobalSeed()); err != nil {
			// Unreachable: lg was validated against the hashmap limits.
			panic(err)
		}
	} else {
		hm.Reset(nextGlobalSeed())
	}
	key, ok := hm.InsertUniqueChecked(pairs)
	if hm.Length()*18 <= maxPooledBytes {
		pool.Put(hm)
	}
	return key, ok
}

// DeserializeReplay is the pre-bulk-engine decoder, kept as the baseline
// the bulk path is benchmarked and property-tested against: it re-probes
// the table once per pair through Adjust. Deserialize loads the same
// bytes into a byte-identical table (same size, same insertion order,
// hence same placement) through one pipelined InsertUnique.
func DeserializeReplay(data []byte) (*Sketch, error) {
	h, err := parseSerialized(data)
	if err != nil {
		return nil, err
	}
	q := h.quantile
	if q == 0 {
		q = QuantileMin
	}
	s, err := NewWithOptions(Options{
		MaxCounters: h.maxCounters(),
		Quantile:    q,
		SampleSize:  h.sampleSize,
	})
	if err != nil {
		return nil, err
	}
	for s.hm.Capacity() < h.numActive && s.hm.LgLength() < s.lgMaxLength {
		s.grow()
	}
	p := headerBytes
	for i := 0; i < h.numActive; i++ {
		key := int64(binary.LittleEndian.Uint64(data[p:]))
		value := int64(binary.LittleEndian.Uint64(data[p+8:]))
		p += 16
		if value <= 0 {
			return nil, fmt.Errorf("%w: non-positive counter %d for item %d", ErrCorrupt, value, key)
		}
		if !s.hm.Adjust(key, value) {
			return nil, fmt.Errorf("%w: duplicate item %d", ErrCorrupt, key)
		}
	}
	s.streamN = h.streamN
	s.offset = h.offset
	return s, nil
}

// ReadFrom decodes a sketch from r, which must contain exactly one
// serialized sketch followed by EOF or further data; only the sketch's
// own bytes are consumed.
func ReadFrom(r io.Reader) (*Sketch, error) {
	s, _, err := ReadFromCount(r)
	return s, err
}

// ReadFromCount is ReadFrom reporting the bytes actually read (including
// partial reads on error, per the io.ReaderFrom convention). The header
// lives on the stack and the payload in a pooled buffer handed straight
// to the bulk decoder — no header+body concatenation copy. The header's
// counter count is a claim: the buffer grows only as body bytes arrive,
// at most doubling what has been read, so a header no body backs costs
// memory in proportion to the bytes behind it. A short body returns
// io.ReadFull's errors: io.EOF when no body byte came, otherwise
// io.ErrUnexpectedEOF.
func ReadFromCount(r io.Reader) (*Sketch, int64, error) {
	var consumed int64
	var header [headerBytes]byte
	n, err := io.ReadFull(r, header[:])
	consumed += int64(n)
	if err != nil {
		return nil, consumed, err
	}
	h, err := parseHeader(header[:])
	if err != nil {
		return nil, consumed, err
	}
	size := 16 * h.numActive
	bp := getBytes(min(size, 64<<10))
	for read := 0; read < size; {
		if read == len(*bp) {
			*bp = slices.Grow(*bp, read)[:min(size, 2*read)]
		}
		n, err = io.ReadFull(r, (*bp)[read:])
		read += n
		consumed += int64(n)
		if err == io.EOF && read > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			putBytes(bp)
			return nil, consumed, err
		}
	}
	s := new(Sketch)
	err = loadBody(s, h, *bp)
	putBytes(bp)
	if err != nil {
		return nil, consumed, err
	}
	return s, consumed, nil
}
