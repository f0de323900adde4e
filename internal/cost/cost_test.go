package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randCost draws a well-formed interval with occasional degeneracy to a
// point, the distribution the optimizer actually produces.
func randCost(rng *rand.Rand) Cost {
	lo := rng.Float64() * 100
	if rng.Intn(3) == 0 {
		return Point(lo)
	}
	return Interval(lo, lo+rng.Float64()*100)
}

func TestOrderingString(t *testing.T) {
	cases := map[Ordering]string{
		Less:         "Less",
		Equal:        "Equal",
		Greater:      "Greater",
		Incomparable: "Incomparable",
		Ordering(42): "Ordering(42)",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("Ordering(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestCompareBasics(t *testing.T) {
	tests := []struct {
		a, b Cost
		want Ordering
	}{
		{Point(1), Point(2), Less},
		{Point(2), Point(1), Greater},
		{Point(1), Point(1), Equal},
		{Interval(0, 1), Interval(2, 3), Less},
		{Interval(2, 3), Interval(0, 1), Greater},
		{Interval(0, 2), Interval(1, 3), Incomparable},
		{Interval(0, 10), Interval(1, 2), Incomparable}, // containment overlaps
		{Interval(0, 1), Interval(1, 2), Incomparable},  // touching endpoints overlap
		{Interval(0, 1), Interval(0, 1), Equal},
	}
	for _, tc := range tests {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("%v.Compare(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestCompareDuality: a.Compare(b) and b.Compare(a) must be mirror images.
func TestCompareDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rng.Seed(seed)
		a, b := randCost(rng), randCost(rng)
		ab, ba := a.Compare(b), b.Compare(a)
		switch ab {
		case Less:
			return ba == Greater
		case Greater:
			return ba == Less
		case Equal, Incomparable:
			return ba == ab
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareConsistentWithPoints: if a.Compare(b) == Less, then every
// realizable point of a is below every realizable point of b — the
// soundness property dominance pruning relies on.
func TestCompareConsistentWithPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		rng.Seed(seed)
		a, b := randCost(rng), randCost(rng)
		if a.Compare(b) != Less {
			return true
		}
		for i := 0; i < 10; i++ {
			pa := a.Lo + rng.Float64()*(a.Hi-a.Lo)
			pb := b.Lo + rng.Float64()*(b.Hi-b.Lo)
			if pa >= pb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPointTotalOrder: point costs are never incomparable, the property
// that makes the same search engine a traditional optimizer.
func TestPointTotalOrder(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		a, b := Point(math.Abs(x)), Point(math.Abs(y))
		return a.Compare(b) != Incomparable
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdd(t *testing.T) {
	a, b := Interval(1, 3), Interval(2, 5)
	if sum := a.Add(b); sum != (Cost{3, 8}) {
		t.Fatalf("Add = %v, want [3,8]", sum)
	}
}

// TestAddMonotone: interval addition preserves containment of realizable
// points, i.e. (a+b) contains pa+pb for realizable pa, pb.
func TestAddMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rng.Seed(seed)
		a, b := randCost(rng), randCost(rng)
		pa := a.Lo + rng.Float64()*(a.Hi-a.Lo)
		pb := b.Lo + rng.Float64()*(b.Hi-b.Lo)
		return a.Add(b).Contains(pa + pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMin(t *testing.T) {
	a, b := Interval(1, 10), Interval(2, 4)
	if got := Min(a, b); got != (Cost{1, 4}) {
		t.Errorf("Min = %v, want [1,4]", got)
	}
	if got := Min(); got != Infinite() {
		t.Errorf("Min() = %v, want infinite", got)
	}
}

// TestMinIsChoosePlanEnvelope: for any realizable binding, the best
// alternative's cost lies within Min of the alternatives' intervals —
// the envelope soundness behind choose-plan costing (§3).
func TestMinIsChoosePlanEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		rng.Seed(seed)
		n := 2 + rng.Intn(4)
		costs := make([]Cost, n)
		points := make([]float64, n)
		for i := range costs {
			costs[i] = randCost(rng)
			points[i] = costs[i].Lo + rng.Float64()*(costs[i].Hi-costs[i].Lo)
		}
		best := points[0]
		for _, p := range points[1:] {
			if p < best {
				best = p
			}
		}
		env := Min(costs...)
		// The best choice is never below the envelope's lower bound; it is
		// never above the envelope's upper bound.
		return env.Lo <= best && best <= env.Hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	c := Interval(2, 5)
	if !c.Contains(2) || !c.Contains(5) || !c.Contains(3.3) {
		t.Error("Contains must include bounds and interior")
	}
	if c.Contains(1.999) || c.Contains(5.001) {
		t.Error("Contains must exclude exterior")
	}
}

func TestInvalidIntervalPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Interval(2, 1) },
		func() { Interval(math.NaN(), 1) },
		func() { Interval(1, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for malformed interval")
				}
			}()
			fn()
		}()
	}
}

func TestValid(t *testing.T) {
	if !Point(1).Valid() || !Interval(1, 2).Valid() || !Infinite().Valid() {
		t.Error("well-formed costs must be Valid")
	}
	if (Cost{2, 1}).Valid() || (Cost{math.NaN(), 1}).Valid() {
		t.Error("malformed costs must not be Valid")
	}
}

func TestCostString(t *testing.T) {
	if got := Point(1.25).String(); got != "1.25s" {
		t.Errorf("Point string = %q", got)
	}
	if got := Interval(0.5, 2).String(); got != "[0.5s, 2s]" {
		t.Errorf("Interval string = %q", got)
	}
}

func TestAddScalarAndIsPoint(t *testing.T) {
	c := Point(1).AddScalar(0.5)
	if c != (Cost{1.5, 1.5}) || !c.IsPoint() {
		t.Errorf("AddScalar = %v", c)
	}
	if Interval(1, 2).IsPoint() {
		t.Error("non-degenerate interval reported as point")
	}
}
