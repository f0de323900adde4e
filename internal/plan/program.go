package plan

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dynplan/internal/physical"
)

// program is a module's plan DAG, lowered once — when the module is
// compiled or loaded, never per activation — plus what only a module
// needs. Its operators are in the wire format's order, so an operator's
// index is the same in the compiled module and in one loaded from its
// bytes.
type program struct {
	*physical.Program
	// rels are the base relations the DAG mentions, sorted.
	rels []string
	// labels caches, per choose-plan, the names its decision trace shows.
	labels []atomic.Pointer[choiceLabels]
	// evaluators recycles the per-activation working arrays.
	evaluators sync.Pool
}

var errTempScan = errors.New("plan contains a Temp-Scan operator; temporaries exist only at run-time and cannot be serialized")

// newProgram makes a lowered DAG a module's program. A module maps a
// node to its index only on a restricted activation, so it scans rather
// than keep the pointer index alive.
func newProgram(pp *physical.Program) *program {
	pp.DropIndex()
	p := &program{Program: pp, labels: make([]atomic.Pointer[choiceLabels], len(pp.Nodes))}
	for _, n := range pp.Nodes {
		if n.Rel != "" && !slices.Contains(p.rels, n.Rel) {
			p.rels = append(p.rels, n.Rel)
		}
	}
	slices.Sort(p.rels)
	return p
}

// lower makes the DAG under root a module's program, with room for nodes
// operators listing edges inputs (see physical.Lower).
func lower(root *physical.Node, nodes, edges int) (*program, error) {
	pp, err := physical.Lower(nodes, edges, root)
	if err == nil && slices.ContainsFunc(pp.Nodes, isTempScan) {
		err = errTempScan
	}
	if err != nil {
		return nil, fmt.Errorf("plan: invalid plan: %w", err)
	}
	return newProgram(pp), nil
}

// isTempScan reports a Temp-Scan, the one operator a module cannot hold.
func isTempScan(n *physical.Node) bool { return n.Op == physical.TempScan }

// chunk sizes the slabs an activation cuts its report from: a chosen plan
// over r relations has r-1 joins and about as many filters and sorts, so
// its cloned spine, picks and trace entries each number a few times r.
func (p *program) chunk() int { return 2 * len(p.rels) }

// evaluator returns a pooled evaluator, or a new one.
func (p *program) evaluator() *evaluator {
	if e, ok := p.evaluators.Get().(*evaluator); ok {
		return e
	}
	return newEvaluator(p)
}

// choiceLabels are the names one choose-plan's decision trace shows: the
// operator's own and its alternatives', in input order.
type choiceLabels struct {
	operator     string
	alternatives []string
}

// choice returns the labels of choose-plan i, rendered the first time an
// activation resolves it: operators never change, so every later trace
// shares the strings (read-only). The operator and its alternatives are
// rendered into one stack buffer and cut from one string. Activations
// racing on a first resolution render equal labels, and either copy
// serves.
func (p *program) choice(i int32) *choiceLabels {
	if l := p.labels[i].Load(); l != nil {
		return l
	}
	kids := p.Inputs(i)
	var buf [1024]byte
	var endBuf [16]int
	// ends[j] is where label j ends, the operator's first.
	b, ends := p.Nodes[i].AppendLabel(buf[:0]), endBuf[:0]
	for _, k := range kids {
		ends = append(ends, len(b))
		b = p.Nodes[k].AppendLabel(b)
	}
	ends = append(ends, len(b))
	s := string(b)
	l := &choiceLabels{operator: s[:ends[0]], alternatives: make([]string, len(kids))}
	for j := range kids {
		l.alternatives[j] = s[ends[j]:ends[j+1]]
	}
	p.labels[i].Store(l)
	return l
}
