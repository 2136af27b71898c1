package exact

import "testing"

func build() *Counter {
	c := New()
	c.Update(1, 100)
	c.Update(2, 50)
	c.Update(3, 30)
	c.Update(1, 20) // item 1 -> 120
	c.Update(4, 5)
	c.Update(5, -3) // ignored
	c.Update(6, 0)  // ignored
	return c
}

func TestBasics(t *testing.T) {
	c := build()
	if c.StreamWeight() != 205 {
		t.Errorf("N = %d", c.StreamWeight())
	}
	if c.Freq(1) != 120 || c.Freq(99) != 0 {
		t.Error("Freq")
	}
	if c.SizeBytes() != 160 {
		t.Errorf("SizeBytes = %d", c.SizeBytes())
	}
}

func TestTopKAndResidual(t *testing.T) {
	c := build()
	top := c.TopK(2)
	if len(top) != 2 || top[0] != (Item{1, 120}) || top[1] != (Item{2, 50}) {
		t.Errorf("TopK = %v", top)
	}
	if got := c.TopK(100); len(got) != 4 {
		t.Errorf("TopK(100) = %d", len(got))
	}
	if got := c.Residual(0); got != 205 {
		t.Errorf("Residual(0) = %d", got)
	}
	if got := c.Residual(2); got != 35 {
		t.Errorf("Residual(2) = %d", got)
	}
	if got := c.Residual(100); got != 0 {
		t.Errorf("Residual(100) = %d", got)
	}
}

func TestTopKTieBreak(t *testing.T) {
	c := New()
	c.Update(9, 10)
	c.Update(3, 10)
	c.Update(5, 10)
	top := c.TopK(3)
	if top[0].Item != 3 || top[1].Item != 5 || top[2].Item != 9 {
		t.Errorf("tie break by item id failed: %v", top)
	}
}

type fixedEstimator map[int64]int64

func (f fixedEstimator) Estimate(item int64) int64 { return f[item] }

func TestErrors(t *testing.T) {
	c := build()
	est := fixedEstimator{1: 110, 2: 50, 3: 40, 4: 5}
	if got := c.MaxError(est); got != 10 {
		t.Errorf("MaxError = %d", got)
	}
	if New().MaxError(est) != 0 {
		t.Error("empty counter errors")
	}
}

func TestRange(t *testing.T) {
	c := build()
	n := 0
	c.Range(func(_, _ int64) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
	total := int64(0)
	c.Range(func(_, f int64) bool { total += f; return true })
	if total != 205 {
		t.Errorf("Range sum %d", total)
	}
}
