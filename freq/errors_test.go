package freq_test

import (
	"errors"
	"testing"

	"repro/freq"
)

// Every constructor and update failure must match its sentinel under
// errors.Is — the contract that lets callers branch without string
// matching.
func TestSentinelErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want error
	}{
		{"zero counters", errOf(freq.New[uint64](0)), freq.ErrTooFewCounters},
		{"negative counters", errOf(freq.New[string](-5)), freq.ErrTooFewCounters},
		{"huge counters", errOf(freq.New[uint64](1 << 30)), freq.ErrTooManyCounters},
		{"quantile zero", errOf(freq.New[uint64](64, freq.WithQuantile(0))), freq.ErrBadQuantile},
		{"quantile one", errOf(freq.New[uint64](64, freq.WithQuantile(1))), freq.ErrBadQuantile},
		{"quantile negative", errOf(freq.New[string](64, freq.WithQuantile(-0.3))), freq.ErrBadQuantile},
		{"sample size zero", errOf(freq.New[uint64](64, freq.WithSampleSize(0))), freq.ErrBadSampleSize},
		{"sample size huge", errOf(freq.New[string](64, freq.WithSampleSize(1<<16+1))), freq.ErrBadSampleSize},
		{"shards zero", errOfConc(freq.NewConcurrent[uint64](64, freq.WithShards(0))), freq.ErrBadShards},
		{"signed bad quantile", errOfSigned(freq.NewSigned[uint64](64, freq.WithQuantile(2))), freq.ErrBadQuantile},
		{"concurrent huge", errOfConc(freq.NewConcurrent[uint64](1<<30, freq.WithShards(1))), freq.ErrTooManyCounters},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: %v does not match %v", c.name, c.err, c.want)
		}
	}
}

func errOf[T comparable](_ *freq.Sketch[T], err error) error         { return err }
func errOfConc[T comparable](_ *freq.Concurrent[T], err error) error { return err }
func errOfSigned[T comparable](_ *freq.Signed[T], err error) error   { return err }

func TestNegativeWeightError(t *testing.T) {
	s, err := freq.New[uint64](64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(1, -1); !errors.Is(err, freq.ErrNegativeWeight) {
		t.Errorf("Sketch.Update(-1) = %v, want ErrNegativeWeight", err)
	}
	g, err := freq.New[string](64)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Update("x", -2); !errors.Is(err, freq.ErrNegativeWeight) {
		t.Errorf("generic Update(-2) = %v, want ErrNegativeWeight", err)
	}
	c, err := freq.NewConcurrent[uint64](64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Update(1, -3); !errors.Is(err, freq.ErrNegativeWeight) {
		t.Errorf("Concurrent.Update(-3) = %v, want ErrNegativeWeight", err)
	}
}

func TestCorruptErrors(t *testing.T) {
	fast, err := freq.New[uint64](64)
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.UnmarshalBinary([]byte("definitely not a sketch")); !errors.Is(err, freq.ErrCorrupt) {
		t.Errorf("fast unmarshal garbage = %v, want ErrCorrupt", err)
	}
	slow, err := freq.New[string](64)
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.UnmarshalBinary([]byte("also not a sketch bytes")); !errors.Is(err, freq.ErrCorrupt) {
		t.Errorf("generic unmarshal garbage = %v, want ErrCorrupt", err)
	}
	// A truncated valid blob must also be rejected as corrupt.
	if err := fast.Update(7, 7); err != nil {
		t.Fatal(err)
	}
	blob, err := fast.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.UnmarshalBinary(blob[:len(blob)-3]); !errors.Is(err, freq.ErrCorrupt) {
		t.Errorf("truncated unmarshal = %v, want ErrCorrupt", err)
	}
}
