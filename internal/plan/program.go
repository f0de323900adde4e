package plan

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"dynplan/internal/physical"
)

// program is a plan DAG lowered once — when the module is compiled or
// loaded, never per activation — into the flat, index-addressed form
// start-up processing runs on: what a pointer walk would re-derive on
// every call is an array position here, or computed once and kept,
// because the module is immutable.
type program struct {
	// nodes holds every distinct operator, inputs before consumers, the
	// root last: the wire format's order, so an operator's index is the
	// same in the compiled module and in one loaded from its bytes.
	nodes []*physical.Node
	// The inputs of nodes[i] are nodes[k], k in kids[kidOff[i]:kidOff[i+1]].
	kidOff, kids []int32
	// index inverts nodes, for callers that hold operators by pointer
	// (StartupOptions.Avoid's pruned DAG, Shrink).
	index map[*physical.Node]int32
	// vars and rels are the host variables and base relations the DAG
	// mentions, sorted.
	vars, rels []string
	// rows and consts are the operators lowered for the start-up sweep.
	rows   []row
	consts []float64
	// labels caches, per choose-plan, the names its decision trace shows.
	labels []atomic.Pointer[choiceLabels]
	// evaluators recycles the per-activation working arrays.
	evaluators sync.Pool
}

// row is one operator's physical.Shape — rows per page of its own records
// and of its inputs' — with its selectivity, base and edge as slots into
// an activation's values: the bound variables in vars order, then consts,
// each distinct fixed selectivity, 1, base and edge once.
type row struct {
	op              physical.Op
	sel, base, edge uint16
	perPage         uint16
	in              [2]uint16
}

func newProgram(capacity int) *program {
	return &program{
		nodes:  make([]*physical.Node, 0, capacity),
		kidOff: append(make([]int32, 0, capacity+1), 0),
		kids:   make([]int32, 0, 2*capacity),
		index:  make(map[*physical.Node]int32, capacity),
	}
}

var errTempScan = errors.New("plan contains a Temp-Scan operator; temporaries exist only at run-time and cannot be serialized")

// inputs returns the indices of node i's inputs.
func (p *program) inputs(i int32) []int32 { return p.kids[p.kidOff[i]:p.kidOff[i+1]] }

// add appends one operator, validating it. Its inputs are already in the
// program, and the caller has just appended their indices to p.kids.
func (p *program) add(n *physical.Node) error {
	if err := n.Check(); err != nil {
		return err
	}
	if n.Op == physical.TempScan {
		return errTempScan
	}
	p.index[n] = int32(len(p.nodes))
	p.nodes = append(p.nodes, n)
	p.kidOff = append(p.kidOff, int32(len(p.kids)))
	if n.Var != "" && !slices.Contains(p.vars, n.Var) {
		p.vars = append(p.vars, n.Var)
	}
	if n.Rel != "" && !slices.Contains(p.rels, n.Rel) {
		p.rels = append(p.rels, n.Rel)
	}
	return nil
}

// chunk sizes the slabs an activation cuts its report from: a chosen plan
// over r relations has r-1 joins and about as many filters and sorts, so
// its cloned spine, picks and trace entries each number a few times r.
func (p *program) chunk() int { return 2 * len(p.rels) }

// seal finishes a program once its last node, the root, is in, lowering
// every operator into its row.
func (p *program) seal() error {
	slices.Sort(p.vars)
	slices.Sort(p.rels)
	p.labels = make([]atomic.Pointer[choiceLabels], len(p.nodes))
	p.rows = make([]row, len(p.nodes))
	consts := make([]float64, 0, 64) // on the stack until cut to size below
	slot := func(v float64) uint16 {
		j := slices.IndexFunc(consts, func(c float64) bool { return math.Float64bits(c) == math.Float64bits(v) })
		if j < 0 {
			j, consts = len(consts), append(consts, v)
		}
		return uint16(len(p.vars) + j)
	}
	for i, n := range p.nodes {
		r := row{op: n.Op, base: slot(float64(n.BaseCard)), edge: slot(n.EdgeSel), perPage: uint16(physical.RowsPerPage(n))}
		if n.Op != physical.ChoosePlan { // the one operator with over two inputs
			for j, k := range p.inputs(int32(i)) {
				r.in[j] = p.rows[k].perPage
			}
		}
		switch {
		case n.Var != "":
			j, _ := slices.BinarySearch(p.vars, n.Var)
			r.sel = uint16(j)
		case n.SelAttr != "":
			r.sel = slot(n.FixedSel)
		default:
			r.sel = slot(1)
		}
		p.rows[i] = r
		if len(p.vars)+len(consts) > math.MaxUint16 {
			return errors.New("plan: too many distinct cost constants to lower")
		}
	}
	p.consts = slices.Clone(consts)
	return nil
}

// evaluator returns a pooled evaluator, or a new one.
func (p *program) evaluator() *evaluator {
	if e, ok := p.evaluators.Get().(*evaluator); ok {
		return e
	}
	return newEvaluator(p)
}

// lower flattens the DAG under root in one children-first pass — the
// pass that also validates every operator, counts them, and collects the
// variable and relation lists.
func lower(root *physical.Node) (*program, error) {
	p := newProgram(0)
	var visit func(n *physical.Node) error
	visit = func(n *physical.Node) error {
		if _, ok := p.index[n]; ok {
			return nil
		}
		for _, c := range n.Children {
			if err := visit(c); err != nil {
				return err
			}
		}
		for _, c := range n.Children {
			p.kids = append(p.kids, p.index[c])
		}
		return p.add(n)
	}
	if err := visit(root); err != nil {
		return nil, fmt.Errorf("plan: invalid plan: %w", err)
	}
	return p, p.seal()
}

// choiceLabels are the names one choose-plan's decision trace shows: the
// operator's own and its alternatives', in input order.
type choiceLabels struct {
	operator     string
	alternatives []string
}

// choice returns the labels of choose-plan i, rendered the first time an
// activation resolves it: operators never change, so every later trace
// shares the strings (read-only). Activations racing on a first
// resolution render equal labels, and either copy serves.
func (p *program) choice(i int32) *choiceLabels {
	if l := p.labels[i].Load(); l != nil {
		return l
	}
	kids := p.inputs(i)
	l := &choiceLabels{operator: p.nodes[i].Label(), alternatives: make([]string, len(kids))}
	for j, k := range kids {
		l.alternatives[j] = p.nodes[k].Label()
	}
	p.labels[i].Store(l)
	return l
}
