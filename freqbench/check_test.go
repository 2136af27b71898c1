package main

import "testing"

func TestCheckBounds(t *testing.T) {
	// item, f, est, lb, ub, maxErr
	if err := checkBounds(7, 100, 105, 95, 110, 20); err != nil {
		t.Errorf("valid estimate rejected: %v", err)
	}
	for _, c := range []struct {
		name                     string
		f, est, lb, ub, maxError int64
	}{
		{"frequency below the lower bound", 90, 105, 95, 110, 20},
		{"frequency above the upper bound", 111, 105, 95, 110, 20},
		{"estimate below the lower bound", 100, 94, 95, 110, 20},
		{"estimate above the upper bound", 100, 111, 95, 110, 20},
		{"band wider than the maximum error", 100, 105, 95, 110, 14},
	} {
		if err := checkBounds(7, c.f, c.est, c.lb, c.ub, c.maxError); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestCheckRows(t *testing.T) {
	good := []row{{1, 50, 45, 55}, {2, 40, 40, 40}, {3, 40, 38, 41}}
	if err := checkRows(good); err != nil {
		t.Errorf("valid rows rejected: %v", err)
	}
	tooMany := make([]row, topK+1)
	for i := range tooMany {
		tooMany[i] = row{int64(i), 1, 1, 1}
	}
	for _, c := range []struct {
		name string
		rows []row
	}{
		{"more rows than asked for", tooMany},
		{"estimate outside its bounds", []row{{1, 50, 51, 55}}},
		{"descending estimates out of order", []row{{1, 40, 40, 40}, {2, 50, 45, 55}}},
		{"ties not by ascending item", []row{{3, 40, 40, 40}, {2, 40, 38, 41}}},
	} {
		if err := checkRows(c.rows); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
