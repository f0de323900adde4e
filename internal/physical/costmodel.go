package physical

import (
	"fmt"
	"math"

	"dynplan/internal/bindings"
	"dynplan/internal/catalog"
	"dynplan/internal/cost"
)

// Model is the interval cost model: Params plus the evaluation machinery.
// The same model serves compile-time optimization (interval environments),
// static optimization (point environments with default estimates), and
// start-up-time choose-plan decisions (point environments from actual
// bindings) — re-evaluating "the cost functions associated with the
// participating alternative plans" is exactly the paper's decision
// procedure (§4).
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

// Session evaluates plan nodes under one fixed environment, memoizing by
// node identity. Memoization is what makes shared subplans in a DAG cost
// only one evaluation — the paper's key start-up-time technique (§4: "the
// cost of each subplan is evaluated only once, not as many times as the
// subplan participates in some larger plan").
type Session struct {
	m    *Model
	env  *bindings.Env
	memo map[*Node]Result
}

// NewSession starts an evaluation session for env.
func (m *Model) NewSession(env *bindings.Env) *Session {
	return &Session{m: m, env: env, memo: make(map[*Node]Result)}
}

// Evaluate is a convenience that runs a fresh session over one node.
func (m *Model) Evaluate(n *Node, env *bindings.Env) Result {
	return m.NewSession(env).Evaluate(n)
}

// EvaluateNode computes one operator's result from already-evaluated child
// results, without touching the children. Callers that manage their own
// memoization (the start-up evaluator, which keeps results in a slice
// indexed by node) use this to avoid re-walking shared subplans. The
// session is a value so the call allocates nothing.
func (m *Model) EvaluateNode(n *Node, env *bindings.Env, kids []Result) Result {
	s := Session{m: m, env: env}
	return s.evaluate(n, kids)
}

// EvaluatedNodes returns the number of distinct nodes this session has
// evaluated, the basis of simulated start-up CPU time.
func (s *Session) EvaluatedNodes() int { return len(s.memo) }

// Env returns the session's environment.
func (s *Session) Env() *bindings.Env { return s.env }

// Evaluate returns the cardinality and total cost of the subplan rooted
// at n under the session's environment.
func (s *Session) Evaluate(n *Node) Result {
	if r, ok := s.memo[n]; ok {
		return r
	}
	kids := make([]Result, len(n.Children))
	for i, c := range n.Children {
		kids[i] = s.Evaluate(c)
	}
	r := s.evaluate(n, kids)
	s.memo[n] = r
	return r
}

// selectivity returns the node's selection-predicate selectivity range.
func (s *Session) selectivity(n *Node) cost.Range {
	if n.Var != "" {
		return s.env.Selectivity(n.Var)
	}
	if n.SelAttr != "" {
		return cost.PointRange(n.FixedSel)
	}
	return cost.PointRange(1)
}

// evaluate computes one operator's result from its children's and panics
// on an ill-formed one, which only a bug in a cost function can produce.
func (s *Session) evaluate(n *Node, kids []Result) Result {
	r := s.compute(n, kids)
	if !r.Cost.Valid() || !r.Card.Valid() {
		panic(fmt.Sprintf("physical: invalid evaluation of %s: cost %v card %v", n.Op, r.Cost, r.Card))
	}
	return r
}

func (s *Session) compute(n *Node, kids []Result) Result {
	card := s.outputCard(n, kids)

	if n.Op == ChoosePlan {
		// The dynamic plan costs the bound-wise minimum of its
		// alternatives plus the decision overhead (§3, §5).
		best := kids[0].Cost
		for _, k := range kids[1:] {
			best = cost.Min(best, k.Cost)
		}
		return Result{Card: card, Cost: best.AddScalar(s.m.P.ChooseOverhead)}
	}

	// Corner evaluation under the monotonicity assumption (§5): lower
	// bound with smallest cardinalities and most memory, upper bound with
	// largest cardinalities and least memory.
	lo := s.ownScalar(n, kids, card, false)
	hi := s.ownScalar(n, kids, card, true)
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
	return Result{Card: card, Cost: total}
}

// outputCard computes the node's output-cardinality interval.
func (s *Session) outputCard(n *Node, kids []Result) cost.Range {
	switch n.Op {
	case FileScan, BtreeScan, TempScan:
		return cost.PointRange(float64(n.BaseCard))
	case FilterBtreeScan:
		return cost.PointRange(float64(n.BaseCard)).Mul(s.selectivity(n))
	case Filter:
		return kids[0].Card.Mul(s.selectivity(n))
	case HashJoin, MergeJoin:
		return kids[0].Card.Mul(kids[1].Card).MulScalar(n.EdgeSel)
	case IndexJoin:
		inner := cost.PointRange(float64(n.BaseCard))
		return kids[0].Card.Mul(inner).MulScalar(n.EdgeSel).Mul(s.selectivity(n))
	case Sort, ChoosePlan:
		return kids[0].Card
	default:
		panic(fmt.Sprintf("physical: outputCard of unknown operator %d", n.Op))
	}
}

// ownScalar evaluates the operator's own cost (excluding inputs) at one
// corner of the parameter space. worst selects the expensive corner:
// highest cardinalities and selectivities, least memory.
func (s *Session) ownScalar(n *Node, kids []Result, outCard cost.Range, worst bool) float64 {
	p := s.m.P
	pick := func(r cost.Range) float64 {
		if worst {
			return r.Hi
		}
		return r.Lo
	}
	mem := s.env.Memory.Hi
	if worst {
		mem = s.env.Memory.Lo
	}
	out := pick(outCard)

	switch n.Op {
	case FileScan, TempScan:
		pages := pagesFor(n.RowBytes, float64(n.BaseCard))
		return pages*p.SeqPageTime + float64(n.BaseCard)*p.TupleCPUTime

	case BtreeScan:
		// Full scan through an unclustered index: one random I/O per
		// record (§6's cost model for uncluttered B-trees).
		c := float64(n.BaseCard)
		return p.BtreeProbeIOs*p.RandIOTime + c*(p.RandIOTime+p.TupleCPUTime)

	case FilterBtreeScan:
		// Only qualifying records are fetched.
		return p.BtreeProbeIOs*p.RandIOTime + out*(p.RandIOTime+p.TupleCPUTime)

	case Filter:
		return pick(kids[0].Card)*p.CompareCPUTime + out*p.TupleCPUTime

	case HashJoin:
		build, probe := pick(kids[0].Card), pick(kids[1].Card)
		cpu := (build+probe)*p.TupleCPUTime + build*p.CompareCPUTime + probe*p.CompareCPUTime + out*p.TupleCPUTime
		buildPages := pagesFor(n.Children[0].RowBytes, build)
		io := 0.0
		if buildPages > mem {
			// Grace hash join: partition both inputs to disk and read
			// them back.
			probePages := pagesFor(n.Children[1].RowBytes, probe)
			io = 2 * (buildPages + probePages) * p.SeqPageTime
		}
		return cpu + io

	case MergeJoin:
		l, r := pick(kids[0].Card), pick(kids[1].Card)
		return (l+r)*p.CompareCPUTime + out*p.TupleCPUTime

	case IndexJoin:
		outer := pick(kids[0].Card)
		// Fetched records before the residual predicate is applied; the
		// residual selectivity reduces the output, not the fetches.
		fetched := outer * float64(n.BaseCard) * n.EdgeSel
		probes := outer * p.BtreeProbeIOs * p.RandIOTime
		return probes + fetched*(p.RandIOTime+p.TupleCPUTime) + out*p.TupleCPUTime

	case Sort:
		in := pick(kids[0].Card)
		cpu := in * log2(in) * p.CompareCPUTime
		pages := pagesFor(n.Children[0].RowBytes, in)
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
		return cpu + io + in*p.TupleCPUTime

	default:
		panic(fmt.Sprintf("physical: ownScalar of unexpected operator %s", n.Op))
	}
}

func pagesFor(rowBytes int, n float64) float64 {
	if n <= 0 {
		return 0
	}
	perPage := float64(catalog.PageBytes / rowBytes)
	if perPage < 1 {
		perPage = 1
	}
	return math.Ceil(n / perPage)
}

func log2(n float64) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(n)
}
