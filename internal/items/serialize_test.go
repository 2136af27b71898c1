package items

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

func TestSerializeRoundTripStrings(t *testing.T) {
	s, err := NewWithQuantile[string](64, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	words := []string{"alpha", "beta", "gamma", "", "δ-utf8", "a b c", "\x00nul"}
	for i := 0; i < 5000; i++ {
		_ = s.Update(words[rng.Intn(len(words))], int64(rng.Intn(50)+1))
	}
	blob := Serialize[string](s, StringSerDe{})
	got, err := Deserialize[string](blob, StringSerDe{})
	if err != nil {
		t.Fatal(err)
	}
	if got.StreamWeight() != s.StreamWeight() || got.MaximumError() != s.MaximumError() ||
		got.NumActive() != s.NumActive() || got.MaxCounters() != s.MaxCounters() {
		t.Fatal("summary state drifted")
	}
	for _, w := range words {
		if got.Estimate(w) != s.Estimate(w) {
			t.Errorf("estimate(%q): %d != %d", w, got.Estimate(w), s.Estimate(w))
		}
		if got.LowerBound(w) != s.LowerBound(w) || got.UpperBound(w) != s.UpperBound(w) {
			t.Errorf("bounds drifted for %q", w)
		}
	}
	// Restored sketch keeps working.
	if err := got.Update("fresh", 5); err != nil {
		t.Fatal(err)
	}
	if got.Estimate("fresh") < 5 {
		t.Error("restored sketch unusable")
	}
}

func TestSerializeRoundTripInt64(t *testing.T) {
	s, err := New[int64](32)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10_000; i++ {
		_ = s.Update(i%100, 7)
	}
	blob := Serialize[int64](s, Int64SerDe{})
	got, err := Deserialize[int64](blob, Int64SerDe{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if got.Estimate(i) != s.Estimate(i) {
			t.Fatalf("estimate(%d) drifted", i)
		}
	}
	// A merged restored sketch behaves like a merged original.
	other, _ := New[int64](32)
	_ = other.Update(5, 100)
	got.Merge(other)
	if got.StreamWeight() != s.StreamWeight()+100 {
		t.Error("merge after deserialize")
	}
}

func TestSerializeEmpty(t *testing.T) {
	s, _ := New[string](16)
	got, err := Deserialize[string](Serialize[string](s, StringSerDe{}), StringSerDe{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsEmpty() || got.NumActive() != 0 {
		t.Error("empty round trip")
	}
}

func TestDeserializeCorrupt(t *testing.T) {
	s, _ := New[string](16)
	_ = s.Update("x", 3)
	_ = s.Update("yy", 9)
	good := Serialize[string](s, StringSerDe{})

	mutate := func(f func([]byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:8],
		"magic":     mutate(func(b []byte) { b[0] ^= 0xFF }),
		"version":   mutate(func(b []byte) { b[4] = 9 }),
		"trailing":  append(append([]byte(nil), good...), 1, 2, 3),
		"truncated": good[:len(good)-3],
		"badcount": mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[37:], 1<<30)
		}),
		"huge sample size": mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[17:], 0x6f000000)
		}),
		"huge item length": mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[41:], 1<<30)
		}),
	}
	for name, data := range cases {
		if _, err := Deserialize[string](data, StringSerDe{}); err == nil {
			t.Errorf("%s accepted", name)
		} else if !errors.Is(err, ErrCorrupt) && name != "huge item length" {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
}

func TestInt64SerDeErrors(t *testing.T) {
	if _, err := (Int64SerDe{}).Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("short int64 encoding accepted")
	}
	// Through the sketch: corrupt an item length so the int64 payload is
	// the wrong width.
	s, _ := New[int64](16)
	_ = s.Update(7, 3)
	blob := Serialize[int64](s, Int64SerDe{})
	blob[41] = 4 // shrink the first item's declared length
	if _, err := Deserialize[int64](blob, Int64SerDe{}); err == nil {
		t.Error("mismatched serde width accepted")
	}
}
