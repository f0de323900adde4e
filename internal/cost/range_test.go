package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randRange(rng *rand.Rand) Range {
	lo := rng.Float64() * 50
	if rng.Intn(3) == 0 {
		return PointRange(lo)
	}
	return NewRange(lo, lo+rng.Float64()*50)
}

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

// TestRangeMulSound: for non-negative ranges, the product range contains
// the product of any realizable points — the property cardinality
// propagation depends on.
func TestRangeMulSound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		rng.Seed(seed)
		a, b := randRange(rng), randRange(rng)
		pa := a.Lo + rng.Float64()*(a.Hi-a.Lo)
		pb := b.Lo + rng.Float64()*(b.Hi-b.Lo)
		return a.Mul(b).Contains(pa * pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeScalarOps(t *testing.T) {
	r := NewRange(2, 4)
	if got := r.MulScalar(3); got != (Range{6, 12}) {
		t.Errorf("MulScalar = %v", got)
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
