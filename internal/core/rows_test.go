package core

import "testing"

func TestRowString(t *testing.T) {
	r := Row{Item: 1, Estimate: 2, LowerBound: 3, UpperBound: 4}
	if r.String() == "" {
		t.Error("empty Row string")
	}
}
