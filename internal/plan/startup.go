package plan

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
)

// StartupOptions configures plan activation.
type StartupOptions struct {
	// Params are the cost-model constants; zero value means defaults.
	Params physical.Params
	// IndexExists, when non-nil, validates the plan against the current
	// catalog (the System R revalidation of [CAK81], which the paper's
	// activation step includes: "I/O operations to verify that the plan
	// is still feasible"). Alternatives requiring an index that no
	// longer exists are infeasible; a choose-plan falls back to its
	// feasible alternatives, and activation fails with ErrInfeasible
	// only when no complete feasible plan remains — the case that forces
	// a static plan into re-optimization but that dynamic plans often
	// survive.
	IndexExists func(rel, attr string) bool
	// Avoid, when non-nil, marks plan nodes this activation must not use —
	// typically the branches a failed execution had picked (see
	// StartupReport.Picked), so the retrying fallback executor can steer
	// re-activation onto sibling alternatives. A choose-plan falls back to
	// its remaining alternatives; activation fails with ErrInfeasible when
	// no complete plan avoiding every marked node survives. Nodes are
	// matched by identity against the module's own DAG.
	Avoid func(n *physical.Node) bool
	// Usage, when non-nil, receives this activation's used-node set for
	// the shrinking heuristic. The accumulator — not the module — carries
	// the mutable statistics, so a compiled module stays read-only and
	// concurrently shareable; activation without a Usage sink records
	// nothing.
	Usage *UsageStats
}

// ErrInfeasible reports that no feasible plan remains in the access
// module under the current catalog; the query must be re-optimized.
var ErrInfeasible = errors.New("plan: no feasible alternative remains; re-optimization required")

// StartupReport describes one activation of an access module: the plan
// chosen for the supplied bindings and the decomposed start-up expense
// (the paper's time f: module I/O plus choose-plan decision CPU).
type StartupReport struct {
	// Chosen is the fully resolved static plan for these bindings; it
	// contains no choose-plan operators.
	Chosen *physical.Node
	// ChosenCost is the predicted execution cost of the chosen plan under
	// the bindings, the quantity Figure 4 and Figure 8 aggregate (the
	// paper's execution times are "those predicted by the optimizer",
	// §6 footnote 4).
	ChosenCost float64
	// Decisions is the number of choose-plan operators resolved.
	Decisions int
	// Picked records, per resolved choose-plan in resolution order, the
	// alternative (DAG child pointer) the decision procedure selected.
	// The fallback executor passes these back through
	// StartupOptions.Avoid after a branch fails mid-query.
	Picked []*physical.Node
	// Trace records, per resolved choose-plan in resolution order, the
	// alternatives compared, the predicted cost of each under these
	// bindings, and why the decision procedure picked the one it did —
	// the start-up decision trace the observability layer renders.
	Trace []obs.ChoiceTrace
	// NodesEvaluated is the number of distinct plan nodes whose cost
	// functions were evaluated: every node of the module, or of what
	// remains of it once Avoid and IndexExists have pruned it.
	NodesEvaluated int
	// SimCPUSeconds is the simulated start-up CPU time:
	// NodesEvaluated × Params.StartupNodeTime (the paper measured ≈0.4 ms
	// per node on its hardware; Figure 7).
	SimCPUSeconds float64
	// SimIOSeconds is the simulated module-read plus activation I/O time.
	SimIOSeconds float64
	// MeasuredCPU is the real CPU time this activation took on the host.
	MeasuredCPU time.Duration
}

// TotalStartupSeconds returns the simulated start-up time f = I/O + CPU.
func (r *StartupReport) TotalStartupSeconds() float64 {
	return r.SimIOSeconds + r.SimCPUSeconds
}

// Activate performs start-up-time processing: it instantiates the
// bindings, evaluates the cost functions over the plan DAG (each shared
// subplan once), resolves every choose-plan operator to its cheapest
// alternative, and returns the chosen static plan with the start-up
// expense breakdown. Activation never mutates the module; when
// opt.Usage is set, the used-node set is folded into that accumulator
// for the shrinking heuristic.
func (m *AccessModule) Activate(b *bindings.Bindings, opt StartupOptions) (*StartupReport, error) {
	if opt.Params == (physical.Params{}) {
		opt.Params = physical.DefaultParams()
	}
	e := m.prog.evaluator()
	if missing := e.bind(b); len(missing) > 0 {
		e.release()
		return nil, fmt.Errorf("plan: unbound host variables at start-up: %v", missing)
	}

	began := time.Now()
	if opt.Avoid != nil || opt.IndexExists != nil {
		e.release()
		prog, err := m.prog.restrict(opt)
		if err != nil {
			return nil, err
		}
		e = prog.evaluator()
		e.bind(b) // pruning only drops variables: the rest are bound
	}

	defer e.release()
	rep := e.run(opt.Params)
	if opt.Usage != nil {
		// Usage statistics drive the shrinking heuristic and are counted
		// by the module's own node indices; when pruning rebuilt parts of
		// the DAG, only the surviving original nodes are counted.
		used := e.used
		if e.p != m.prog {
			used = used[:0]
			for _, i := range e.used {
				if j, ok := m.prog.index[e.p.nodes[i]]; ok {
					used = append(used, j)
				}
			}
		}
		opt.Usage.record(used, len(m.prog.nodes))
	}
	rep.SimIOSeconds = m.ReadTime(opt.Params)
	rep.MeasuredCPU = time.Since(began)
	return rep, nil
}

// evaluator is one activation's working state over a program: the memo
// of start-up evaluation (§4: "the cost of each subplan is evaluated only
// once") as arrays indexed by node. Every parameter is bound at start-up,
// so the cost kernel runs at one corner and a node's cardinality and cost
// are one number each. Evaluators are recycled through their program's
// pool, so an activation allocates only what its report keeps.
type evaluator struct {
	p      *program
	params physical.Params
	mem    float64
	// vals holds what the rows' slots name; card and cost each node's
	// output cardinality and its subplan's total cost.
	vals, card, cost []float64
	// used lists the nodes the chosen plan contains; isUsed marks them.
	used   []int32
	isUsed []bool

	// What the report keeps: the picks and the trace, and the slabs the
	// chosen plan's cloned spine, its child lists and the trace's cost
	// lists are cut from.
	picked   []*physical.Node
	trace    []obs.ChoiceTrace
	clones   []physical.Node
	children []*physical.Node
	costs    []float64
}

func newEvaluator(p *program) *evaluator {
	v, n := len(p.vars)+len(p.consts), len(p.nodes)
	buf := make([]float64, v+2*n)
	copy(buf[len(p.vars):], p.consts)
	return &evaluator{p: p, vals: buf[:v], card: buf[v : v+n], cost: buf[v+n:], isUsed: make([]bool, n)}
}

// bind reads the bindings into the variable slots; it returns the unbound.
func (e *evaluator) bind(b *bindings.Bindings) (missing []string) {
	for j, v := range e.p.vars {
		s, ok := b.Sel[v]
		if !ok {
			missing = append(missing, v)
		}
		e.vals[j] = s
	}
	e.mem = b.Memory
	return missing
}

// release returns the evaluator to its pool, dropping every reference to
// what the finished activation handed out.
func (e *evaluator) release() {
	e.picked, e.trace, e.clones, e.children, e.costs = nil, nil, nil, nil, nil
	e.p.evaluators.Put(e)
}

// run evaluates the program under the bound values and materializes the
// chosen plan.
func (e *evaluator) run(params physical.Params) *StartupReport {
	e.params = params
	clear(e.isUsed)
	e.used = e.used[:0]
	// Inputs precede consumers, so one sweep in index order finds every
	// operator's input results already in place.
	p, vals := e.p, e.vals
	for i, r := range p.rows {
		kids := p.inputs(int32(i))
		if r.op == physical.ChoosePlan {
			// The cheapest alternative plus the decision overhead (§3, §5).
			best := e.cost[kids[0]]
			for _, k := range kids[1:] {
				if c := e.cost[k]; c < best {
					best = c
				}
			}
			e.card[i], e.cost[i] = e.card[kids[0]], best+params.ChooseOverhead
			continue
		}
		var in [2]float64
		for j, k := range kids {
			in[j] = e.card[k]
		}
		s := physical.Shape{Op: r.op, Base: vals[r.base], Edge: vals[r.edge],
			PerPage: float64(r.perPage), In0: float64(r.in[0]), In1: float64(r.in[1])}
		card, cost := e.params.Corner(s, in[0], in[1], vals[r.sel], e.mem)
		for _, k := range kids {
			cost += e.cost[k]
		}
		if math.IsNaN(card) || math.IsNaN(cost) {
			panic(fmt.Sprintf("plan: invalid evaluation of %s: cost %g card %g", r.op, cost, card))
		}
		e.card[i], e.cost[i] = card, cost
	}
	chosen, _, cost := e.materialize(int32(len(p.nodes) - 1))
	return &StartupReport{
		Chosen:         chosen,
		ChosenCost:     cost,
		Decisions:      len(e.picked),
		Picked:         e.picked,
		Trace:          e.trace,
		NodesEvaluated: len(p.nodes),
		SimCPUSeconds:  float64(len(p.nodes)) * params.StartupNodeTime,
	}
}

// materialize resolves the subplan at node i into a tree without
// choose-plans (a chosen plan uses each shared subplan at most once,
// since join operands cover disjoint relation sets) and returns it with
// its cardinality and cost under the bindings. Only the spine above a
// resolved choose-plan is cloned; the rest is the module's own nodes and
// results.
func (e *evaluator) materialize(i int32) (*physical.Node, float64, float64) {
	if !e.isUsed[i] {
		e.isUsed[i] = true
		e.used = append(e.used, i)
	}
	n, kids := e.p.nodes[i], e.p.inputs(i)
	if n.Op == physical.ChoosePlan {
		return e.materialize(e.decide(i))
	}
	// Check admits at most two inputs below anything but a choose-plan.
	var children [2]*physical.Node
	var cards, costs [2]float64
	changed := false
	for j, k := range kids {
		children[j], cards[j], costs[j] = e.materialize(k)
		changed = changed || children[j] != e.p.nodes[k]
	}
	if !changed {
		return n, e.card[i], e.cost[i]
	}
	chunk := e.p.chunk()
	clone := &take(&e.clones, 1, chunk)[0]
	*clone = *n
	clone.Children = take(&e.children, len(kids), 2*chunk)
	copy(clone.Children, children[:])
	// The clone's shape reads its resolved inputs' widths. Its inputs and
	// selectivity passed the sweep's NaN check.
	card, cost := e.params.Corner(physical.ShapeOf(clone), cards[0], cards[1], e.vals[e.p.rows[i].sel], e.mem)
	for j := range kids {
		cost += costs[j]
	}
	return clone, card, cost
}

// decide resolves choose-plan i — the cheapest alternative, the first of
// equals — records the decision, and returns the alternative's index.
func (e *evaluator) decide(i int32) int32 {
	kids := e.p.inputs(i)
	chunk := e.p.chunk()
	costs := take(&e.costs, len(kids), 4*chunk)
	best := 0
	for j, k := range kids {
		costs[j] = e.cost[k]
		if costs[j] < costs[best] {
			best = j
		}
	}
	if e.trace == nil {
		e.trace = make([]obs.ChoiceTrace, 0, chunk)
		e.picked = make([]*physical.Node, 0, chunk)
	}
	labels := e.p.choice(i)
	e.trace = append(e.trace, obs.NewChoice(labels.operator, labels.alternatives, costs, best))
	e.picked = append(e.picked, e.p.nodes[kids[best]])
	return kids[best]
}

// restrict is activation's cold path: it prunes what opt avoids or lacks
// an index from the untouched DAG and lowers the rest on the spot.
func (p *program) restrict(opt StartupOptions) (*program, error) {
	pruned, err := p.prune(func(n *physical.Node) bool {
		if opt.Avoid != nil && opt.Avoid(n) {
			return true
		}
		if opt.IndexExists == nil {
			return false
		}
		switch n.Op {
		case physical.BtreeScan, physical.FilterBtreeScan, physical.IndexJoin:
			return !opt.IndexExists(n.Rel, n.Attr)
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	return lower(pruned)
}

// prune rebuilds the plan DAG without the nodes the predicate drops (and
// without every plan that would have to run them), cloning only the spine
// above a change so shared subplans stay shared. Choose-plan operators
// keep their surviving alternatives, collapsing when one remains; any
// other operator with a dropped input is itself dropped. It returns
// ErrInfeasible when no complete plan survives.
func (p *program) prune(drop func(*physical.Node) bool) (*physical.Node, error) {
	out := make([]*physical.Node, len(p.nodes)) // by index; nil: dropped
nodes:
	for i, n := range p.nodes {
		if drop(n) {
			continue
		}
		kept := make([]*physical.Node, 0, len(n.Children))
		for _, k := range p.inputs(int32(i)) {
			if out[k] != nil {
				kept = append(kept, out[k])
			} else if n.Op != physical.ChoosePlan {
				continue nodes
			}
		}
		switch {
		case n.Op == physical.ChoosePlan && len(kept) == 0:
		case n.Op == physical.ChoosePlan && len(kept) == 1:
			out[i] = kept[0]
		case !slices.Equal(kept, n.Children):
			clone := *n
			clone.Children = kept
			out[i] = &clone
		default:
			out[i] = n
		}
	}
	if root := out[len(out)-1]; root != nil {
		return root, nil
	}
	return nil, ErrInfeasible
}
