package plan

import (
	"errors"
	"fmt"
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
	// Cards holds the predicted output cardinality of every operator of
	// Chosen under these bindings, in post-order: an operator's inputs,
	// left to right, before the operator.
	Cards []float64
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
	if missing := e.p.Bind(&e.Eval, b); len(missing) > 0 {
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
		prog.Bind(&e.Eval, b) // pruning only drops variables: the rest are bound
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
				if j := m.prog.Index(e.p.Nodes[i]); j >= 0 {
					used = append(used, j)
				}
			}
		}
		opt.Usage.record(used, len(m.prog.Nodes))
	}
	rep.SimIOSeconds = m.ReadTime(opt.Params)
	rep.MeasuredCPU = time.Since(began)
	return rep, nil
}

// evaluator is one activation's working state over a program: the memo
// of start-up evaluation (§4: "the cost of each subplan is evaluated only
// once") as the program's arrays indexed by node. Evaluators are recycled
// through their program's pool, so an activation allocates only what its
// report keeps.
type evaluator struct {
	p      *program
	params physical.Params
	physical.Eval
	// used lists the nodes the chosen plan contains; isUsed marks them.
	used   []int32
	isUsed []bool
	// decided collects each decision's alternative costs and post the
	// chosen plan's cardinalities while it materializes; the report keeps
	// both, copied into one slab.
	decided, post []float64

	// reasons holds the decisions' reasons back to back, each ending at
	// its reasonEnds entry; run makes them one string the trace slices.
	reasons    []byte
	reasonEnds []int32

	// What the report keeps: the picks and the trace, and the slabs the
	// chosen plan's cloned spine and its child lists are cut from.
	picked   []*physical.Node
	trace    []obs.ChoiceTrace
	clones   []physical.Node
	children []*physical.Node
}

func newEvaluator(p *program) *evaluator {
	// What materializing collects is sized like the report's slabs — the
	// chosen plan's nodes a few times r, its decisions' costs about r² —
	// so a typical activation never grows it. A reason is at most 48 bytes.
	c := p.chunk()
	scratch, ints := make([]float64, 2*c+c*c), make([]int32, 4*c)
	return &evaluator{p: p, Eval: p.NewEval(), isUsed: make([]bool, len(p.Nodes)),
		used: ints[: 0 : 3*c], reasonEnds: ints[3*c : 3*c], reasons: make([]byte, 0, 48*c),
		post: scratch[: 0 : 2*c], decided: scratch[2*c : 2*c]}
}

// release returns the evaluator to its pool, dropping every reference to
// what the finished activation handed out.
func (e *evaluator) release() {
	e.picked, e.trace, e.clones, e.children = nil, nil, nil, nil
	e.p.evaluators.Put(e)
}

// run evaluates the program under the bound values and materializes the
// chosen plan.
func (e *evaluator) run(params physical.Params) *StartupReport {
	e.params = params
	clear(e.isUsed)
	e.used, e.decided, e.post = e.used[:0], e.decided[:0], e.post[:0]
	e.reasons, e.reasonEnds = e.reasons[:0], e.reasonEnds[:0]
	p := e.p
	p.Sweep(&e.params, &e.Eval)
	chosen, _, cost := e.materialize(int32(len(p.Nodes) - 1))
	// One slab holds the floats the report keeps: every decision's costs,
	// then the chosen plan's cardinalities. One string holds the reasons.
	slab := make([]float64, len(e.decided)+len(e.post))
	copy(slab[copy(slab, e.decided):], e.post)
	reasons, from := string(e.reasons), int32(0)
	for k := range e.trace {
		n := len(e.trace[k].Costs)
		e.trace[k].Costs, slab = slab[:n:n], slab[n:]
		e.trace[k].Reason, from = reasons[from:e.reasonEnds[k]], e.reasonEnds[k]
	}
	return &StartupReport{
		Chosen:         chosen,
		ChosenCost:     cost,
		Cards:          slab,
		Decisions:      len(e.picked),
		Picked:         e.picked,
		Trace:          e.trace,
		NodesEvaluated: len(p.Nodes),
		SimCPUSeconds:  float64(len(p.Nodes)) * params.StartupNodeTime,
	}
}

// materialize resolves the subplan at node i into a tree without
// choose-plans (a chosen plan uses each shared subplan at most once,
// since join operands cover disjoint relation sets) and returns it with
// its cardinality and cost under the bindings, appending the cardinality
// to post once its inputs' are there. Only the spine above a resolved
// choose-plan is cloned; the rest is the module's own nodes and results.
func (e *evaluator) materialize(i int32) (*physical.Node, float64, float64) {
	if !e.isUsed[i] {
		e.isUsed[i] = true
		e.used = append(e.used, i)
	}
	n, kids := e.p.Nodes[i], e.p.Inputs(i)
	if n.Op == physical.ChoosePlan {
		return e.materialize(e.decide(i))
	}
	// Check admits at most two inputs below anything but a choose-plan.
	var children [2]*physical.Node
	var cards, costs [2]float64
	changed := false
	for j, k := range kids {
		children[j], cards[j], costs[j] = e.materialize(k)
		changed = changed || children[j] != e.p.Nodes[k]
	}
	card, cost := e.Card[i], e.Cost[i]
	if changed {
		chunk := e.p.chunk()
		clone := &take(&e.clones, 1, chunk)[0]
		*clone = *n
		clone.Children = take(&e.children, len(kids), 2*chunk)
		copy(clone.Children, children[:])
		// The clone's shape reads its resolved inputs' widths. Its inputs and
		// selectivity passed the sweep's NaN check.
		card, cost = e.params.Corner(physical.ShapeOf(clone), cards[0], cards[1], e.p.Selectivity(&e.Eval, i), e.Mem)
		for j := range kids {
			cost += costs[j]
		}
		n = clone
	}
	e.post = append(e.post, card)
	return n, card, cost
}

// decide resolves choose-plan i through the program's decision procedure,
// records the decision, and returns the alternative's index.
func (e *evaluator) decide(i int32) int32 {
	kids := e.p.Inputs(i)
	best := e.p.Decide(i, e.Cost)
	from := len(e.decided)
	for _, k := range kids {
		e.decided = append(e.decided, e.Cost[k])
	}
	if e.trace == nil {
		chunk := e.p.chunk()
		e.trace = make([]obs.ChoiceTrace, 0, chunk)
		e.picked = make([]*physical.Node, 0, chunk)
	}
	labels := e.p.choice(i)
	// The trace's costs point into decided, and its reason is in reasons,
	// until run moves both.
	e.reasons = obs.AppendReason(e.reasons, e.decided[from:], best)
	e.reasonEnds = append(e.reasonEnds, int32(len(e.reasons)))
	e.trace = append(e.trace, obs.ChoiceTrace{Operator: labels.operator, Alternatives: labels.alternatives,
		Costs: e.decided[from:], Picked: best})
	e.picked = append(e.picked, e.p.Nodes[kids[best]])
	return kids[best]
}

// restrict is activation's cold path: it prunes what opt avoids or lacks
// an index from the untouched DAG and lowers the rest on the spot.
func (p *program) restrict(opt StartupOptions) (*program, error) {
	pruned, err := p.prune(func(_ int, n *physical.Node) bool {
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
	return lower(pruned, 0, 0)
}

// prune rebuilds the plan DAG without the nodes the predicate drops (and
// without every plan that would have to run them), cloning only the spine
// above a change so shared subplans stay shared. Choose-plan operators
// keep their surviving alternatives, collapsing when one remains; any
// other operator with a dropped input is itself dropped. It returns
// ErrInfeasible when no complete plan survives.
func (p *program) prune(drop func(int, *physical.Node) bool) (*physical.Node, error) {
	out := make([]*physical.Node, len(p.Nodes)) // by index; nil: dropped
nodes:
	for i, n := range p.Nodes {
		if drop(i, n) {
			continue
		}
		kept := make([]*physical.Node, 0, len(n.Children))
		for _, k := range p.Inputs(int32(i)) {
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
