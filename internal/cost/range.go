package cost

import (
	"fmt"
	"math"
)

// Range is an interval of an uncertain cost-model parameter: a predicate
// selectivity, an input cardinality, or an amount of available memory.
// Like Cost it degrades to a point when the parameter is bound. The paper
// models "selectivity, cardinality, and available memory" as intervals
// exactly like cost (§3, §5); we keep a distinct type because parameters
// and costs combine differently (parameters flow through cost *functions*,
// costs flow through plan algebra).
type Range struct {
	Lo, Hi float64
}

// PointRange returns the degenerate range [v, v].
func PointRange(v float64) Range { return Range{Lo: v, Hi: v} }

// NewRange returns the range [lo, hi], panicking on malformed input to
// surface cost-model bugs immediately.
func NewRange(lo, hi float64) Range {
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		panic(fmt.Sprintf("cost: invalid range [%g, %g]", lo, hi))
	}
	return Range{Lo: lo, Hi: hi}
}

// IsPoint reports whether the parameter is fully bound.
func (r Range) IsPoint() bool { return r.Lo == r.Hi }

// Contains reports whether v lies within the range.
func (r Range) Contains(v float64) bool { return r.Lo <= v && v <= r.Hi }

// Valid reports whether the range is well formed.
func (r Range) Valid() bool {
	return !math.IsNaN(r.Lo) && !math.IsNaN(r.Hi) && r.Lo <= r.Hi
}

// String formats the range as a point or an interval.
func (r Range) String() string {
	if r.IsPoint() {
		return fmt.Sprintf("%.4g", r.Lo)
	}
	return fmt.Sprintf("[%.4g, %.4g]", r.Lo, r.Hi)
}
