package physical

import (
	"fmt"
	"math"

	"dynplan/internal/bindings"
	"dynplan/internal/catalog"
	"dynplan/internal/cost"
)

// Model is the interval cost model: Params plus the evaluation machinery.
// Its cost functions are one kernel, Params.Corner, which serves
// compile-time optimization (interval environments, both corners, through
// EvaluateNode), static optimization (point environments with default
// estimates), and every run-time evaluation (actual bindings, one corner,
// through a lowered Program's sweep) — re-evaluating "the cost functions
// associated with the participating alternative plans" is exactly the
// paper's decision procedure (§4).
type Model struct {
	P Params
}

// NewModel returns a model over the given parameters.
func NewModel(p Params) *Model { return &Model{P: p} }

// Result is the outcome of evaluating one plan node: its output
// cardinality interval and the total cost interval of the subplan rooted
// there (operator cost plus input costs; for choose-plan, the bound-wise
// minimum of the alternatives plus decision overhead).
type Result struct {
	Card cost.Range
	Cost cost.Cost
}

// Evaluate returns the cardinality and total cost intervals of the
// subplan rooted at n under env: the compile-time view of a plan, which
// lowers it and evaluates each shared subplan once.
func (m *Model) Evaluate(n *Node, env *bindings.Env) Result {
	res := m.EvaluateProgram(mustLower(n), env)
	return res[len(res)-1]
}

// EvaluateProgram evaluates every operator of p under env, inputs before
// consumers, and returns the results by index.
func (m *Model) EvaluateProgram(p *Program, env *bindings.Env) []Result {
	res := make([]Result, len(p.Nodes))
	var kids []Result
	for i, n := range p.Nodes {
		kids = kids[:0]
		for _, k := range p.Inputs(int32(i)) {
			kids = append(kids, res[k])
		}
		res[i] = EvaluateNode(&m.P, n, env, kids)
	}
	return res
}

// EvaluateNode computes one operator's result under env from its inputs'
// results, without touching the inputs; callers that manage their own
// memoization (the search, which costs a candidate from its inputs'
// winners) evaluate shared subplans once this way. It panics on an
// ill-formed result, which only a bug in a cost function can produce.
func EvaluateNode(p *Params, n *Node, env *bindings.Env, kids []Result) Result {
	r := compute(p, n, env, kids)
	if !r.Cost.Valid() || !r.Card.Valid() {
		panic(fmt.Sprintf("physical: invalid evaluation of %s: cost %v card %v", n.Op, r.Cost, r.Card))
	}
	return r
}

func compute(p *Params, n *Node, env *bindings.Env, kids []Result) Result {
	if n.Op == ChoosePlan {
		// The dynamic plan costs the bound-wise minimum of its
		// alternatives plus the decision overhead (§3, §5).
		best := kids[0].Cost
		for _, k := range kids[1:] {
			best = cost.Min(best, k.Cost)
		}
		return Result{Card: kids[0].Card, Cost: best.AddScalar(p.ChooseOverhead)}
	}
	// Both corners of the environment (§5): the lower bound at the least
	// input and most memory, the upper at the opposite.
	sel := cost.PointRange(1)
	switch {
	case n.Var != "":
		sel = env.Selectivity(n.Var)
	case n.SelAttr != "":
		sel = cost.PointRange(n.FixedSel)
	}
	shape := ShapeOf(n)
	var in [2]cost.Range
	for i, k := range kids[:min(len(kids), 2)] {
		in[i] = k.Card
	}
	cardLo, lo := p.Corner(shape, in[0].Lo, in[1].Lo, sel.Lo, env.Memory.Hi)
	cardHi, hi := p.Corner(shape, in[0].Hi, in[1].Hi, sel.Hi, env.Memory.Lo)
	if hi < lo {
		// Cost functions are monotone by construction; tolerate tiny
		// floating-point inversions rather than panicking.
		if lo-hi > 1e-9*(1+math.Abs(lo)) {
			panic(fmt.Sprintf("physical: non-monotone cost for %s: lo %g > hi %g", n.Op, lo, hi))
		}
		hi = lo
	}
	total := cost.Interval(lo, hi)
	for _, k := range kids {
		total = total.Add(k.Cost)
	}
	return Result{Card: cost.Range{Lo: cardLo, Hi: cardHi}, Cost: total}
}

// Shape is what an operator's cost function reads of the operator itself,
// all fixed at compile time: the base relation's cardinality, the join
// edge's selectivity, and the rows per page of its own records and of its
// inputs' (ShapeOf sets only those the operator's cost reads).
type Shape struct {
	Op                Op
	Base, Edge        float64
	PerPage, In0, In1 float64
}

// ShapeOf returns n's shape.
func ShapeOf(n *Node) Shape {
	s := Shape{Op: n.Op, Base: float64(n.BaseCard), Edge: n.EdgeSel}
	switch n.Op {
	case FileScan, TempScan:
		s.PerPage = RowsPerPage(n)
	case Sort:
		s.In0 = RowsPerPage(n.Children[0])
	case HashJoin:
		s.In0, s.In1 = RowsPerPage(n.Children[0]), RowsPerPage(n.Children[1])
	}
	return s
}

// RowsPerPage returns how many of n's output records one page holds.
func RowsPerPage(n *Node) float64 { return max(float64(catalog.PageBytes/n.RowBytes), 1) }

// Corner is the cost model's one kernel: an operator's output cardinality
// and own cost (its inputs' excluded) at one corner of the parameter
// space, given its input cardinalities, selectivity and memory there.
// Interval evaluation calls it at both corners, a program's sweep at its
// one; a choose-plan has no cost function of its own.
func (p *Params) Corner(s Shape, in0, in1, sel, mem float64) (card, own float64) {
	switch s.Op {
	case FileScan, TempScan:
		return s.Base, pageCount(s.Base, s.PerPage)*p.SeqPageTime + s.Base*p.TupleCPUTime

	case BtreeScan:
		// Full scan through an unclustered index: one random I/O per
		// record (§6's cost model for uncluttered B-trees).
		return s.Base, p.BtreeProbeIOs*p.RandIOTime + s.Base*(p.RandIOTime+p.TupleCPUTime)

	case FilterBtreeScan:
		// Only qualifying records are fetched.
		out := s.Base * sel
		return out, p.BtreeProbeIOs*p.RandIOTime + out*(p.RandIOTime+p.TupleCPUTime)

	case Filter:
		out := in0 * sel
		return out, in0*p.CompareCPUTime + out*p.TupleCPUTime

	case HashJoin:
		out := in0 * in1 * s.Edge
		cpu := (in0+in1)*p.TupleCPUTime + in0*p.CompareCPUTime + in1*p.CompareCPUTime + out*p.TupleCPUTime
		buildPages := pageCount(in0, s.In0)
		io := 0.0
		if buildPages > mem {
			// Grace hash join: partition both inputs to disk and read
			// them back.
			io = 2 * (buildPages + pageCount(in1, s.In1)) * p.SeqPageTime
		}
		return out, cpu + io

	case MergeJoin:
		out := in0 * in1 * s.Edge
		return out, (in0+in1)*p.CompareCPUTime + out*p.TupleCPUTime

	case IndexJoin:
		// Fetched records before the residual predicate is applied; the
		// residual selectivity reduces the output, not the fetches.
		fetched := in0 * s.Base * s.Edge
		out := fetched * sel
		probes := in0 * p.BtreeProbeIOs * p.RandIOTime
		return out, probes + fetched*(p.RandIOTime+p.TupleCPUTime) + out*p.TupleCPUTime

	case Sort:
		cpu := in0 * log2(in0) * p.CompareCPUTime
		pages := pageCount(in0, s.In0)
		io := 0.0
		if memEff := math.Max(mem, 3); pages > memEff {
			mem := memEff
			runs := math.Ceil(pages / mem)
			fanIn := math.Max(mem-1, 2)
			passes := math.Ceil(math.Log(runs) / math.Log(fanIn))
			if passes < 1 {
				passes = 1
			}
			// Run generation (write + read) plus one write+read per merge
			// pass beyond the first.
			io = 2 * pages * passes * p.SeqPageTime
		}
		return in0, cpu + io + in0*p.TupleCPUTime

	default:
		panic(fmt.Sprintf("physical: no cost function for operator %s", s.Op))
	}
}

// pageCount returns the pages n records fill at rows records a page.
func pageCount(n, rows float64) float64 {
	if n <= 0 {
		return 0
	}
	return math.Ceil(n / rows)
}

func log2(n float64) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(n)
}
