package cost

import (
	"math"
	"testing"
)

func TestRangeBasics(t *testing.T) {
	r := NewRange(2, 6)
	if r.IsPoint() {
		t.Error("non-degenerate range reported as point")
	}
	if !PointRange(3).IsPoint() {
		t.Error("PointRange must be a point")
	}
}

func TestRangePanicsOnMalformed(t *testing.T) {
	for _, fn := range []func(){
		func() { NewRange(2, 1) },
		func() { NewRange(math.NaN(), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRangeContains(t *testing.T) {
	r := NewRange(1, 3)
	if !r.Contains(1) || !r.Contains(3) || r.Contains(0.5) {
		t.Error("Contains misbehaves")
	}
}

func TestRangeValidAndString(t *testing.T) {
	if !NewRange(1, 2).Valid() {
		t.Error("well-formed range must be Valid")
	}
	if (Range{2, 1}).Valid() {
		t.Error("inverted range must not be Valid")
	}
	if got := PointRange(0.5).String(); got != "0.5" {
		t.Errorf("point string = %q", got)
	}
	if got := NewRange(0, 1).String(); got != "[0, 1]" {
		t.Errorf("range string = %q", got)
	}
}
