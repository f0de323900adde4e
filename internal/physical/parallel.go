package physical

import (
	"dynplan/internal/bindings"
	"dynplan/internal/cost"
)

// This file prices plans as the parallel executor would run them, so
// degree of parallelism is a costed alternative in the paper's sense
// (§4): at activation the pipeline evaluates the resolved plan serially
// and at the grant-funded DOP, and runs parallel only when the parallel
// estimate is cheaper — least-expected-cost choice over {serial, DOP},
// exactly how low-memory choose-plan branches are already selected.
//
// The model mirrors the executor's compile dispatch (exec.DB.compile):
// base-relation scans and hash joins partition DOP ways, a Filter
// directly above a File-Scan is pushed into the scan partitions, and
// everything else runs serial. A partitioned operator's own cost divides
// by DOP; each exchange adds a startup charge per worker and a transfer
// charge per row crossing the boundary.

// ParallelEvaluate returns the cardinality and cost of the subplan
// rooted at n when executed with dop-way intra-query parallelism under
// env. dop ≤ 1 degenerates to the serial evaluation.
func (m *Model) ParallelEvaluate(n *Node, env *bindings.Env, dop int) Result {
	s := m.NewSession(env)
	if dop <= 1 {
		return s.Evaluate(n)
	}
	ps := &parSession{s: s, dop: dop, memo: make(map[*Node]Result)}
	return ps.evaluate(n)
}

// parSession memoizes parallel evaluations by node identity, sharing the
// serial session for cardinalities (parallelism never changes what an
// operator produces, only who produces it).
type parSession struct {
	s    *Session
	dop  int
	memo map[*Node]Result
}

// exchangeOverhead prices one exchange: spawning and joining dop workers
// plus moving rows rows across the boundary.
func (ps *parSession) exchangeOverhead(rows float64) float64 {
	p := ps.s.m.P
	return float64(ps.dop)*p.ExchangeStartupTime + rows*p.ExchangeTupleTime
}

// serialKids returns the serial results of n's children, the cardinality
// inputs the cost kernel needs.
func (ps *parSession) serialKids(n *Node) []Result {
	kids := make([]Result, len(n.Children))
	for i, c := range n.Children {
		kids[i] = ps.s.Evaluate(c)
	}
	return kids
}

// own evaluates the operator's own cost interval by corner evaluation,
// the same convention as Session.evaluate.
func (ps *parSession) own(n *Node) cost.Cost {
	_, lo, hi := ps.s.corners(n, ps.serialKids(n))
	if hi < lo {
		hi = lo
	}
	return cost.Interval(lo, hi)
}

func (ps *parSession) evaluate(n *Node) Result {
	if r, ok := ps.memo[n]; ok {
		return r
	}
	r := ps.compute(n)
	ps.memo[n] = r
	return r
}

func (ps *parSession) compute(n *Node) Result {
	serial := ps.s.Evaluate(n)
	card := serial.Card
	dop := float64(ps.dop)

	switch n.Op {
	case ChoosePlan:
		alts := make([]cost.Cost, len(n.Children))
		for i, c := range n.Children {
			alts[i] = ps.evaluate(c).Cost
		}
		return Result{Card: card, Cost: cost.Min(alts...).AddScalar(ps.s.m.P.ChooseOverhead)}

	case FileScan, BtreeScan, FilterBtreeScan:
		// Partitioned scan behind a gather: the scan's own work divides
		// across the workers; its whole output crosses the exchange.
		own := ps.own(n).DivScalar(dop)
		return Result{Card: card, Cost: own.AddScalar(ps.exchangeOverhead(card.Hi))}

	case Filter:
		if n.Children[0].Op == FileScan {
			// Pushed into the scan partitions: one exchange, carrying only
			// the qualifying rows.
			own := ps.own(n).Add(ps.own(n.Children[0])).DivScalar(dop)
			return Result{Card: card, Cost: own.AddScalar(ps.exchangeOverhead(card.Hi))}
		}
		child := ps.evaluate(n.Children[0])
		return Result{Card: card, Cost: ps.own(n).Add(child.Cost)}

	case HashJoin:
		// Symmetric partition join: both inputs are hash-routed to DOP
		// partition workers, so the join's own work divides; both input
		// streams and the output cross exchange boundaries.
		kids := ps.serialKids(n)
		crossing := kids[0].Card.Hi + kids[1].Card.Hi + card.Hi
		total := ps.own(n).DivScalar(dop).AddScalar(ps.exchangeOverhead(crossing))
		for _, c := range n.Children {
			total = total.Add(ps.evaluate(c).Cost)
		}
		return Result{Card: card, Cost: total}

	default:
		// Serial operator over (possibly) parallel inputs.
		total := ps.own(n)
		for _, c := range n.Children {
			total = total.Add(ps.evaluate(c).Cost)
		}
		return Result{Card: card, Cost: total}
	}
}
