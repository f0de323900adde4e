// Package cost implements the interval cost abstract data type of
// Cole & Graefe (SIGMOD 1994).
//
// A cost is an interval [Lo, Hi] of anticipated query-evaluation expense in
// seconds. Traditional optimizers use point costs (Lo == Hi), which are
// totally ordered. When cost-model parameters (selectivities of unbound
// predicates, available memory) are unknown at compile-time, costs become
// intervals, and two overlapping intervals are declared incomparable: it is
// impossible to claim that one plan is always better than the other. The
// resulting partial order is the key concept that drives dynamic-plan
// optimization: incomparable alternatives are retained and linked by a
// choose-plan operator instead of being pruned.
//
// The package also provides the arithmetic the search engine needs:
//   - Add sums both bounds.
//   - Min combines the costs of alternative plans under a choose-plan
//     operator: the dynamic plan costs, in the best case, the lower of the
//     best cases, and in the worst case the lower of the worst cases.
package cost

import (
	"fmt"
	"math"
)

// Ordering is the result of comparing two interval costs. In addition to
// the three standard outcomes of a total order it includes Incomparable,
// returned when the intervals overlap and neither plan can be proven
// cheaper at compile-time.
type Ordering int

// Possible comparison outcomes.
const (
	Less Ordering = iota
	Equal
	Greater
	Incomparable
)

// String returns a human-readable name for the ordering.
func (o Ordering) String() string {
	switch o {
	case Less:
		return "Less"
	case Equal:
		return "Equal"
	case Greater:
		return "Greater"
	case Incomparable:
		return "Incomparable"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Cost is an interval of anticipated execution expense, in seconds.
// The zero value is the point cost 0, ready to use.
type Cost struct {
	Lo, Hi float64
}

// Point returns the degenerate interval [v, v]. Static (traditional)
// optimization models every cost as a point, which restores the total
// order of classic dynamic programming.
func Point(v float64) Cost { return Cost{Lo: v, Hi: v} }

// Interval returns the cost [lo, hi]. It panics if lo > hi or either bound
// is NaN, which would indicate a bug in a cost function.
func Interval(lo, hi float64) Cost {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		panic("cost: NaN bound")
	}
	if lo > hi {
		panic(fmt.Sprintf("cost: inverted interval [%g, %g]", lo, hi))
	}
	return Cost{Lo: lo, Hi: hi}
}

// Infinite returns a cost no feasible plan can reach, used as the initial
// branch-and-bound limit.
func Infinite() Cost {
	return Cost{Lo: math.Inf(1), Hi: math.Inf(1)}
}

// IsPoint reports whether the interval is degenerate (Lo == Hi), i.e. the
// cost is fully determined at compile-time.
func (c Cost) IsPoint() bool { return c.Lo == c.Hi }

// IsInfinite reports whether the cost is the unreachable sentinel.
func (c Cost) IsInfinite() bool { return math.IsInf(c.Lo, 1) }

// Valid reports whether the interval is well formed: no NaNs and Lo <= Hi.
func (c Cost) Valid() bool {
	return !math.IsNaN(c.Lo) && !math.IsNaN(c.Hi) && c.Lo <= c.Hi
}

// Compare implements the partial order of §3: strictly disjoint intervals
// compare as Less or Greater, identical intervals as Equal, and overlapping
// non-identical intervals as Incomparable. For point costs this degrades to
// the usual total order, so the same search engine performs traditional
// optimization when all parameters are bound.
func (c Cost) Compare(d Cost) Ordering {
	switch {
	case c == d:
		return Equal
	case c.Hi < d.Lo:
		return Less
	case d.Hi < c.Lo:
		return Greater
	default:
		return Incomparable
	}
}

// Dominates reports whether c is provably no more expensive than d for
// every possible run-time binding, i.e. a plan with cost d can be pruned in
// favor of one with cost c. Equal intervals do not dominate each other:
// the paper's prototype retains equal-cost plans as alternatives (§3,
// "handled in the most naive manner"), and the search engine offers
// equal-cost pruning as a separate, explicit policy.
func (c Cost) Dominates(d Cost) bool {
	return c.Compare(d) == Less
}

// Add returns the interval sum c + d: lower and upper bounds add
// independently.
func (c Cost) Add(d Cost) Cost {
	return Cost{Lo: c.Lo + d.Lo, Hi: c.Hi + d.Hi}
}

// AddScalar returns c shifted by the point cost v.
func (c Cost) AddScalar(v float64) Cost {
	return Cost{Lo: c.Lo + v, Hi: c.Hi + v}
}

// Min combines the costs of equivalent alternative plans linked by a
// choose-plan operator: the bound-wise minimum. The choose-plan decision
// overhead is added separately by the caller.
func Min(costs ...Cost) Cost {
	if len(costs) == 0 {
		return Infinite()
	}
	m := costs[0]
	for _, c := range costs[1:] {
		if c.Lo < m.Lo {
			m.Lo = c.Lo
		}
		if c.Hi < m.Hi {
			m.Hi = c.Hi
		}
	}
	return m
}

// Max returns the bound-wise maximum, useful for tests and for computing
// pessimistic envelopes.
func Max(costs ...Cost) Cost {
	if len(costs) == 0 {
		return Cost{}
	}
	m := costs[0]
	for _, c := range costs[1:] {
		if c.Lo > m.Lo {
			m.Lo = c.Lo
		}
		if c.Hi > m.Hi {
			m.Hi = c.Hi
		}
	}
	return m
}

// Contains reports whether the point v lies inside the interval. Every
// actual run-time cost must lie inside the compile-time interval; tests use
// this to validate the corner-evaluation of cost functions.
func (c Cost) Contains(v float64) bool { return c.Lo <= v && v <= c.Hi }

// ContainsInterval reports whether d lies entirely within c.
func (c Cost) ContainsInterval(d Cost) bool { return c.Lo <= d.Lo && d.Hi <= c.Hi }

// Width returns Hi - Lo, the compile-time uncertainty of the estimate.
func (c Cost) Width() float64 { return c.Hi - c.Lo }

// String formats the cost as a point ("1.25s") or an interval
// ("[0.50s, 2.00s]").
func (c Cost) String() string {
	if c.IsPoint() {
		return fmt.Sprintf("%.4gs", c.Lo)
	}
	return fmt.Sprintf("[%.4gs, %.4gs]", c.Lo, c.Hi)
}
