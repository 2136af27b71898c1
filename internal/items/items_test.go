package items

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/streamgen"
)

func TestValidation(t *testing.T) {
	if _, err := New[string](0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewWithQuantile[string](10, 1.0); err == nil {
		t.Error("quantile 1 accepted")
	}
	if _, err := NewWithQuantile[string](10, -0.5); err == nil {
		t.Error("negative quantile accepted")
	}
	s, err := NewWithQuantile[string](10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxCounters() != 10 {
		t.Error("MaxCounters")
	}
}

func TestExactUnderCapacity(t *testing.T) {
	s, err := New[string](16)
	if err != nil {
		t.Fatal(err)
	}
	words := map[string]int64{"a": 5, "bb": 17, "ccc": 1}
	for w, n := range words {
		if err := s.Update(w, n); err != nil {
			t.Fatal(err)
		}
	}
	for w, n := range words {
		if s.Estimate(w) != n || s.LowerBound(w) != n || s.UpperBound(w) != n {
			t.Errorf("word %q not exact", w)
		}
	}
	if s.Estimate("zzz") != 0 || s.MaximumError() != 0 {
		t.Error("unseen/offset")
	}
	if s.NumActive() != 3 || s.StreamWeight() != 23 || s.IsEmpty() {
		t.Error("accounting")
	}
}

func TestUpdateValidation(t *testing.T) {
	s, _ := New[int](8)
	if err := s.Update(1, -1); err == nil {
		t.Error("negative weight accepted")
	}
	if err := s.Update(1, 0); err != nil {
		t.Error("zero weight rejected")
	}
	s.UpdateOne(2)
	if s.Estimate(2) != 1 {
		t.Error("UpdateOne")
	}
}

// TestBracketingUnderPressure mirrors the core sketch guarantee tests on
// the generic implementation.
func TestBracketingUnderPressure(t *testing.T) {
	for _, q := range []float64{0, 0.5, 0.9} {
		s, err := NewWithQuantile[int64](128, q)
		if err != nil {
			t.Fatal(err)
		}
		oracle := exact.New()
		stream, err := streamgen.ZipfStream(1.0, 1<<13, 80_000, 500, 31)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range stream {
			if err := s.Update(u.Item, u.Weight); err != nil {
				t.Fatal(err)
			}
			oracle.Update(u.Item, u.Weight)
		}
		if s.StreamWeight() != oracle.StreamWeight() {
			t.Fatal("stream weight drift")
		}
		if s.NumActive() > s.MaxCounters() {
			t.Fatalf("q=%v: %d active > %d", q, s.NumActive(), s.MaxCounters())
		}
		offset := s.MaximumError()
		oracle.Range(func(item, truth int64) bool {
			lb, ub := s.LowerBound(item), s.UpperBound(item)
			if lb > truth || ub < truth {
				t.Fatalf("q=%v item %d: [%d, %d] misses %d", q, item, lb, ub, truth)
			}
			if lb > 0 && ub-lb != offset {
				t.Fatalf("q=%v: ub-lb %d != offset %d", q, ub-lb, offset)
			}
			return true
		})
		// Same 3x-slack bound as the core tests (0.33k shape).
		bound := 3 * float64(oracle.StreamWeight()) / (0.33 * 128)
		if got := float64(oracle.MaxError(s)); got > bound {
			t.Errorf("q=%v: max error %.0f > %.0f", q, got, bound)
		}
	}
}

func TestStringItems(t *testing.T) {
	s, err := New[string](8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	truth := map[string]int64{}
	for i := 0; i < 20_000; i++ {
		w := fmt.Sprintf("w%d", rng.Intn(100))
		truth[w] += 3
		if err := s.Update(w, 3); err != nil {
			t.Fatal(err)
		}
	}
	for w, f := range truth {
		if lb, ub := s.LowerBound(w), s.UpperBound(w); lb > f || ub < f {
			t.Fatalf("%q: [%d, %d] misses %d", w, lb, ub, f)
		}
	}
}

func TestMergeGeneric(t *testing.T) {
	a, _ := New[string](64)
	b, _ := New[string](64)
	_ = a.Update("x", 10)
	_ = b.Update("x", 5)
	_ = b.Update("y", 7)
	a.Merge(b)
	if a.Estimate("x") != 15 || a.Estimate("y") != 7 || a.StreamWeight() != 22 {
		t.Errorf("merge: x=%d y=%d N=%d", a.Estimate("x"), a.Estimate("y"), a.StreamWeight())
	}
	if a.Merge(nil) != a || a.Merge(a) != a {
		t.Error("degenerate merges")
	}
	empty, _ := New[string](64)
	a.Merge(empty)
	if a.StreamWeight() != 22 {
		t.Error("empty merge changed weight")
	}
}

func TestMergeUnderPressureBrackets(t *testing.T) {
	a, _ := New[int64](96)
	b, _ := New[int64](96)
	oracle := exact.New()
	for i, sk := range []*Sketch[int64]{a, b} {
		stream, err := streamgen.ZipfStream(1.1, 1<<11, 30_000, 200, uint64(60+i))
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range stream {
			_ = sk.Update(u.Item, u.Weight)
			oracle.Update(u.Item, u.Weight)
		}
	}
	a.Merge(b)
	if a.StreamWeight() != oracle.StreamWeight() {
		t.Fatal("merged N wrong")
	}
	oracle.Range(func(item, truth int64) bool {
		if lb, ub := a.LowerBound(item), a.UpperBound(item); lb > truth || ub < truth {
			t.Fatalf("item %d: [%d, %d] misses %d", item, lb, ub, truth)
		}
		return true
	})
}

func TestResetGeneric(t *testing.T) {
	s, _ := New[int](8)
	for i := 0; i < 1000; i++ {
		_ = s.Update(i%50, 5)
	}
	s.Reset()
	if !s.IsEmpty() || s.NumActive() != 0 || s.MaximumError() != 0 {
		t.Error("Reset incomplete")
	}
	_ = s.Update(1, 1)
	if s.Estimate(1) != 1 {
		t.Error("unusable after Reset")
	}
}

func TestStructKeys(t *testing.T) {
	type flow struct {
		src, dst uint32
		port     uint16
	}
	s, err := New[flow](16)
	if err != nil {
		t.Fatal(err)
	}
	f1 := flow{1, 2, 80}
	f2 := flow{1, 2, 443}
	_ = s.Update(f1, 100)
	_ = s.Update(f2, 50)
	_ = s.Update(f1, 25)
	if s.Estimate(f1) != 125 || s.Estimate(f2) != 50 {
		t.Error("struct keys broken")
	}
}
