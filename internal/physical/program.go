package physical

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"dynplan/internal/bindings"
)

// Program is a plan DAG lowered into the flat, index-addressed form every
// run-time cost evaluation reads: the paper's §4 memo ("the cost of each
// subplan is evaluated only once") as arrays indexed by position, so a
// sweep in index order evaluates each shared subplan once without a map.
type Program struct {
	// Nodes holds every distinct operator, inputs before consumers; a
	// program lowered from one root has it last.
	Nodes []*Node
	// The inputs of Nodes[i] are Nodes[k], k in kids[kidOff[i]:kidOff[i+1]].
	kidOff, kids []int32
	index        map[*Node]int32
	// Vars are the host variables the DAG mentions, sorted.
	Vars []string
	// rows and consts are the operators lowered for the sweep.
	rows   []row
	consts []float64
}

// row is one operator's Shape — rows per page of its own records and of
// its inputs' — with its selectivity, base and edge as slots into an
// evaluation's values: the bound variables in Vars order, then consts,
// each distinct fixed selectivity, 1, base and edge once.
type row struct {
	op              Op
	sel, base, edge uint16
	perPage         uint16
	in              [2]uint16
}

// NewProgram returns an empty program with room for nodes operators
// listing edges inputs in all (two per operator when edges is 0), for
// callers that add operators one at a time and then Seal.
func NewProgram(nodes, edges int) *Program {
	if edges <= 0 {
		edges = 2 * nodes
	}
	return &Program{
		Nodes:  make([]*Node, 0, nodes),
		kidOff: append(make([]int32, 0, nodes+1), 0),
		kids:   make([]int32, 0, edges),
		index:  make(map[*Node]int32, nodes),
		Vars:   make([]string, 0, 8),
	}
}

// Lower flattens the union of the DAGs under roots in one children-first
// pass, validating every operator and giving a subplan the roots share
// one index. Temp-Scans are accepted: run-time plans read temporaries.
// nodes and edges bound the operators and the inputs they list (a search
// result's Stats.Nodes and Stats.Edges, exact) so the program never
// regrows; 0 starts it at room for 32 operators with two inputs each.
func Lower(nodes, edges int, roots ...*Node) (*Program, error) {
	if nodes <= 0 {
		nodes = 32
	}
	p := NewProgram(nodes, edges)
	var visit func(n *Node) error
	visit = func(n *Node) error {
		if _, ok := p.index[n]; ok {
			return nil
		}
		for _, c := range n.Children {
			if err := visit(c); err != nil {
				return err
			}
		}
		return p.Add(n)
	}
	for _, r := range roots {
		if err := visit(r); err != nil {
			return nil, err
		}
	}
	return p, p.Seal()
}

// mustLower lowers a plan the caller guarantees is well formed.
func mustLower(root *Node) *Program {
	p, err := Lower(0, 0, root)
	if err != nil {
		panic(fmt.Sprintf("physical: cannot evaluate an invalid plan: %v", err))
	}
	return p
}

// Add appends operator n, validating it; its inputs are already in the
// program.
func (p *Program) Add(n *Node) error {
	if err := n.Check(); err != nil {
		return err
	}
	for _, c := range n.Children {
		p.kids = append(p.kids, p.index[c])
	}
	p.index[n] = int32(len(p.Nodes))
	p.Nodes = append(p.Nodes, n)
	p.kidOff = append(p.kidOff, int32(len(p.kids)))
	if n.Var != "" && !slices.Contains(p.Vars, n.Var) {
		p.Vars = append(p.Vars, n.Var)
	}
	return nil
}

// Inputs returns the indices of node i's inputs.
func (p *Program) Inputs(i int32) []int32 { return p.kids[p.kidOff[i]:p.kidOff[i+1]] }

// Index returns n's position, or -1 when the program does not hold it;
// after DropIndex, by a scan over Nodes.
func (p *Program) Index(n *Node) int32 {
	if p.index == nil {
		return int32(slices.Index(p.Nodes, n))
	}
	if i, ok := p.index[n]; ok {
		return i
	}
	return -1
}

// DropIndex frees the pointer index of a program no operator will be
// added to, for one kept long and rarely asked for a node's position.
func (p *Program) DropIndex() { p.index = nil }

// Seal finishes a program once its last operator is in, lowering every
// operator into its row.
func (p *Program) Seal() error {
	slices.Sort(p.Vars)
	p.rows = make([]row, len(p.Nodes))
	consts := make([]float64, 0, 64) // on the stack until cut to size below
	slot := func(v float64) uint16 {
		j := slices.IndexFunc(consts, func(c float64) bool { return math.Float64bits(c) == math.Float64bits(v) })
		if j < 0 {
			j, consts = len(consts), append(consts, v)
		}
		return uint16(len(p.Vars) + j)
	}
	for i, n := range p.Nodes {
		r := row{op: n.Op, base: slot(float64(n.BaseCard)), edge: slot(n.EdgeSel), perPage: uint16(RowsPerPage(n))}
		if n.Op != ChoosePlan { // the one operator with over two inputs
			for j, k := range p.Inputs(int32(i)) {
				r.in[j] = p.rows[k].perPage
			}
		}
		switch {
		case n.Var != "":
			j, _ := slices.BinarySearch(p.Vars, n.Var)
			r.sel = uint16(j)
		case n.SelAttr != "":
			r.sel = slot(n.FixedSel)
		default:
			r.sel = slot(1)
		}
		p.rows[i] = r
		if len(p.Vars)+len(consts) > math.MaxUint16 {
			return errors.New("physical: too many distinct cost constants to lower")
		}
	}
	p.consts = slices.Clone(consts)
	return nil
}

// Eval is a program's evaluation at one bound point: Vals holds what the
// rows' slots name — the bound selectivities in Vars order, then the
// constants — Mem the memory in pages, and Card and Cost each operator's
// output cardinality and its subplan's total cost, by index. Every
// parameter is bound, so the cost kernel runs at one corner.
type Eval struct {
	Vals, Card, Cost []float64
	Mem              float64
}

// NewEval returns working arrays for p, cut from one allocation, with the
// constants in place and the variables still to bind.
func (p *Program) NewEval() Eval {
	v, n := len(p.Vars)+len(p.consts), len(p.Nodes)
	buf := make([]float64, v+2*n)
	copy(buf[len(p.Vars):], p.consts)
	return Eval{Vals: buf[:v], Card: buf[v : v+n], Cost: buf[v+n:]}
}

// Bind reads the bindings into e's variable slots and memory; it returns
// the variables b leaves unbound, which read as selectivity 0 — the
// interval model's lower corner.
func (p *Program) Bind(e *Eval, b *bindings.Bindings) (missing []string) {
	for j, v := range p.Vars {
		s, ok := b.Sel[v]
		if !ok {
			missing = append(missing, v)
		}
		e.Vals[j] = s
	}
	e.Mem = b.Memory
	return missing
}

// At evaluates p once at the bindings b.
func (p *Program) At(params *Params, b *bindings.Bindings) Eval {
	e := p.NewEval()
	p.Bind(&e, b)
	p.Sweep(params, &e)
	return e
}

// Sweep evaluates every operator under e's bound values. Inputs precede
// consumers, so one pass in index order finds every operator's input
// results already in place.
func (p *Program) Sweep(params *Params, e *Eval) {
	vals, cards, costs, mem := e.Vals, e.Card, e.Cost, e.Mem
	for i, r := range p.rows {
		kids := p.Inputs(int32(i))
		if r.op == ChoosePlan {
			// The cheapest alternative plus the decision overhead (§3, §5).
			best := costs[kids[0]]
			for _, k := range kids[1:] {
				if c := costs[k]; c < best {
					best = c
				}
			}
			cards[i], costs[i] = cards[kids[0]], best+params.ChooseOverhead
			continue
		}
		var in [2]float64
		for j, k := range kids {
			in[j] = cards[k]
		}
		s := Shape{Op: r.op, Base: vals[r.base], Edge: vals[r.edge],
			PerPage: float64(r.perPage), In0: float64(r.in[0]), In1: float64(r.in[1])}
		card, cost := params.Corner(s, in[0], in[1], vals[r.sel], mem)
		for _, k := range kids {
			cost += costs[k]
		}
		if math.IsNaN(card) || math.IsNaN(cost) {
			panic(fmt.Sprintf("physical: invalid evaluation of %s: cost %g card %g", r.op, cost, card))
		}
		cards[i], costs[i] = card, cost
	}
}

// Selectivity returns node i's selectivity under e.
func (p *Program) Selectivity(e *Eval, i int32) float64 { return e.Vals[p.rows[i].sel] }

// Decide is the start-up decision procedure for choose-plan i: the
// position among its inputs of the cheapest under cost, the first of
// equals.
func (p *Program) Decide(i int32, cost []float64) int {
	kids := p.Inputs(i)
	best := 0
	for j, k := range kids[1:] {
		if cost[k] < cost[kids[best]] {
			best = j + 1
		}
	}
	return best
}

// Resolve reduces the subplan at node i to the static plan its
// choose-plans select under e and returns it with its cardinality. Only
// the spine above a resolved choose-plan is cloned; a clone's cardinality
// is re-evaluated with the same kernel, since its shape reads its resolved
// inputs' widths.
func (p *Program) Resolve(params *Params, e *Eval, i int32) (*Node, float64) {
	n, kids := p.Nodes[i], p.Inputs(i)
	if n.Op == ChoosePlan {
		return p.Resolve(params, e, kids[p.Decide(i, e.Cost)])
	}
	// Check admits at most two inputs below anything but a choose-plan.
	var children [2]*Node
	var cards [2]float64
	changed := false
	for j, k := range kids {
		children[j], cards[j] = p.Resolve(params, e, k)
		changed = changed || children[j] != p.Nodes[k]
	}
	if !changed {
		return n, e.Card[i]
	}
	clone := *n
	clone.Children = slices.Clone(children[:len(kids)])
	card, _ := params.Corner(ShapeOf(&clone), cards[0], cards[1], p.Selectivity(e, i), e.Mem)
	return &clone, card
}
