package freq

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/items"
)

// Serialization implements the §3 geographically-distributed pattern:
// summarize locally, ship only the summary, merge centrally. Fast-path
// sketches use the compact fixed-width core wire format; generic sketches
// use the length-prefixed items format with a per-type item codec.
// Decoded sketches answer every query identically to the original and
// keep absorbing updates and merges.
//
// Codecs for int64, uint64, and string are built in. Sketches over any
// other comparable type must install one via SetSerDe before marshaling.

// SerDe encodes and decodes items of type T for sketches over types
// without a built-in codec.
type SerDe[T comparable] interface {
	// MarshalItem appends the encoding of v to dst and returns the
	// extended slice.
	MarshalItem(dst []byte, v T) []byte
	// UnmarshalItem decodes one item from data (exactly len(data) bytes).
	UnmarshalItem(data []byte) (T, error)
}

// SetSerDe installs the item codec used by the marshaling methods, and
// returns s for chaining at construction sites.
func (s *Sketch[T]) SetSerDe(sd SerDe[T]) *Sketch[T] {
	s.serde = sd
	return s
}

// serdeAdapter bridges the public SerDe onto the internal interface.
type serdeAdapter[T comparable] struct{ sd SerDe[T] }

func (a serdeAdapter[T]) Marshal(dst []byte, v T) []byte { return a.sd.MarshalItem(dst, v) }
func (a serdeAdapter[T]) Unmarshal(b []byte) (T, error)  { return a.sd.UnmarshalItem(b) }

// itemsSerde resolves the internal codec for the generic path: the
// installed SerDe if any, else a built-in (currently string; the integer
// kinds never reach the generic path).
func (s *Sketch[T]) itemsSerde() (items.SerDe[T], error) {
	if s.serde != nil {
		return serdeAdapter[T]{s.serde}, nil
	}
	if sd, ok := any(items.StringSerDe{}).(items.SerDe[T]); ok {
		return sd, nil
	}
	var zero T
	return nil, fmt.Errorf("%w: %T", ErrNoSerDe, zero)
}

// MarshalBinary implements encoding.BinaryMarshaler. On the fast path
// the encoding runs through the alloc-free AppendTo kernel and allocates
// exactly the returned slice.
func (s *Sketch[T]) MarshalBinary() ([]byte, error) {
	if s.fast != nil {
		return s.fast.Serialize(), nil
	}
	sd, err := s.itemsSerde()
	if err != nil {
		return nil, err
	}
	return items.Serialize(s.slow, sd), nil
}

// AppendBinary implements encoding.BinaryAppender: it appends the
// sketch's encoding to dst and returns the extended slice. On the fast
// path a dst with capacity makes the call allocation-free — the wire
// server's SNAP path reuses one buffer per connection this way. The
// generic path builds the encoding and appends it (one transient
// allocation).
func (s *Sketch[T]) AppendBinary(dst []byte) ([]byte, error) {
	if s.fast != nil {
		return s.fast.AppendTo(dst), nil
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		return dst, err
	}
	return append(dst, blob...), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// sketch's entire state — configuration included — with the decoded one.
// An installed SerDe is kept. On the fast path the decode recycles the
// receiver's standby table when shapes match, so a long-lived receiver
// deserializes without allocating; any rejected input leaves the
// previous state intact.
func (s *Sketch[T]) UnmarshalBinary(data []byte) error {
	if s.fast != nil {
		if err := core.DeserializeInto(s.fast, data); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return nil
	}
	sd, err := s.itemsSerde()
	if err != nil {
		return err
	}
	slow, err := items.Deserialize(data, sd)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.slow = slow
	return nil
}

// MergeBinary folds one encoding, as MarshalBinary or AppendBinary
// produce it, into s per Algorithm 5: the summary UnmarshalBinary into a
// scratch sketch followed by Merge gives. Input UnmarshalBinary rejects
// returns the same error, wrapping ErrCorrupt, and leaves s untouched.
// On the parallel-array backend the counters fold straight from the
// bytes (core.MergeSerialized), with no scratch sketch and, in the
// steady state, no allocation; the generic backend decodes a scratch
// sketch and merges it.
func (s *Sketch[T]) MergeBinary(data []byte) error {
	if s.fast != nil {
		if err := s.fast.MergeSerialized(data); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return nil
	}
	sd, err := s.itemsSerde()
	if err != nil {
		return err
	}
	other, err := items.Deserialize(data, sd)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.slow.Merge(other)
	return nil
}

// WriteTo encodes the sketch to w, implementing io.WriterTo.
func (s *Sketch[T]) WriteTo(w io.Writer) (int64, error) {
	if s.fast != nil {
		return s.fast.WriteTo(w)
	}
	sd, err := s.itemsSerde()
	if err != nil {
		return 0, err
	}
	return items.WriteTo(s.slow, sd, w)
}

// ReadFrom decodes one serialized sketch from r, consuming only the
// sketch's own bytes and replacing the receiver's state as
// UnmarshalBinary does. It implements io.ReaderFrom.
func (s *Sketch[T]) ReadFrom(r io.Reader) (int64, error) {
	if s.fast != nil {
		fast, n, err := core.ReadFromCount(r)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return n, err
			}
			return n, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		s.fast = fast
		return n, nil
	}
	sd, err := s.itemsSerde()
	if err != nil {
		return 0, err
	}
	slow, n, err := items.ReadFrom(r, sd)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return n, err
		}
		return n, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.slow = slow
	return n, nil
}
