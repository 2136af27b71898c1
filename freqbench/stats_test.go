package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3} // sorted in place: 1..5
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := percentile(samples, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

// A tail percentile needs at least ten samples beyond it.
func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {120, 0.9, true},
		{40, 0.75, true}, {39, 0.75, false}, {20, 0.5, true},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values    []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{7, 1}, -0.5, 4, 8.5}, // Python extrapolates past two points
		{[]float64{10, 30, 20}, 10, 20, 30},
	} {
		q1, m, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
