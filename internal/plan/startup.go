package plan

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"dynplan/internal/bindings"
	"dynplan/internal/cost"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
)

// StartupOptions configures plan activation.
type StartupOptions struct {
	// Params are the cost-model constants; zero value means defaults.
	Params physical.Params
	// BranchAndBound enables bound-based abortion of alternative cost
	// evaluations at start-up-time, the optimization §4 proposes ("if the
	// cost computation exceeds the bound, cost calculation can be
	// aborted") but the paper's prototype omitted. It never changes the
	// chosen plan, only the number of cost-function evaluations.
	BranchAndBound bool
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
	// ChosenCostRange is the full predicted cost interval of the chosen
	// plan under the bindings (ChosenCost is its Lo); with every host
	// variable bound it typically collapses to a point, but unbound
	// parameters keep it an interval — the band the calibration layer
	// compares observed executions against.
	ChosenCostRange cost.Cost
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
	// functions were evaluated; with branch-and-bound it can be smaller
	// than the module's node count.
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
	env := b.Env()
	if missing := missingVars(m.root, b); len(missing) > 0 {
		return nil, fmt.Errorf("plan: unbound host variables at start-up: %v", missing)
	}

	began := time.Now()
	model := physical.NewModel(opt.Params)

	root := m.root
	if opt.Avoid != nil || opt.IndexExists != nil {
		// One pass over the module's untouched DAG, so the caller's node
		// identities (from a prior report's Picked) still match.
		pruned, err := prune(root, func(n *physical.Node) bool {
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
		root = pruned
	}

	var nodesEvaluated int
	var trace []obs.ChoiceTrace
	var chooser func(n *physical.Node) (*physical.Node, float64)
	if opt.BranchAndBound {
		ev := newBBEvaluator(model, env)
		if _, ok := ev.eval(root, math.Inf(1)); !ok {
			return nil, fmt.Errorf("plan: start-up evaluation failed")
		}
		nodesEvaluated = ev.evaluated
		chooser = func(n *physical.Node) (*physical.Node, float64) {
			best, bestCost := ev.choose(n)
			costs := make([]float64, len(n.Children))
			picked := 0
			for i, c := range n.Children {
				// Aborted evaluations have no memoized cost; the trace
				// marks them instead of inventing a number.
				if r, ok := ev.memo[c]; ok {
					costs[i] = r.Cost.Lo
				} else {
					costs[i] = obs.AbortedCost
				}
				if c == best {
					picked = i
				}
			}
			trace = append(trace, choiceTrace(n, costs, picked))
			return best, bestCost
		}
	} else {
		sess := model.NewSession(env)
		sess.Evaluate(root)
		nodesEvaluated = sess.EvaluatedNodes()
		chooser = func(n *physical.Node) (*physical.Node, float64) {
			costs := make([]float64, len(n.Children))
			picked := 0
			for i, c := range n.Children {
				costs[i] = sess.Evaluate(c).Cost.Lo
				if costs[i] < costs[picked] {
					picked = i
				}
			}
			trace = append(trace, choiceTrace(n, costs, picked))
			return n.Children[picked], costs[picked]
		}
	}

	resolved, used, picked := resolve(root, chooser)
	chosenRes := model.Evaluate(resolved, env)

	if opt.Usage != nil {
		// Usage statistics drive the shrinking heuristic and are keyed by
		// the module's own DAG nodes; when feasibility validation rebuilt
		// parts of the DAG, only the surviving original nodes are counted.
		if root == m.root {
			opt.Usage.record(used)
		} else {
			originals := make(map[*physical.Node]bool)
			m.root.Walk(func(n *physical.Node) { originals[n] = true })
			filtered := make(map[*physical.Node]bool, len(used))
			for n := range used {
				if originals[n] {
					filtered[n] = true
				}
			}
			opt.Usage.record(filtered)
		}
	}

	return &StartupReport{
		Chosen:          resolved,
		ChosenCost:      chosenRes.Cost.Lo,
		ChosenCostRange: chosenRes.Cost,
		Decisions:       len(picked),
		Picked:          picked,
		Trace:           trace,
		NodesEvaluated:  nodesEvaluated,
		SimCPUSeconds:   float64(nodesEvaluated) * opt.Params.StartupNodeTime,
		SimIOSeconds:    m.ReadTime(opt.Params),
		MeasuredCPU:     time.Since(began),
	}, nil
}

// choiceTrace records one choose-plan resolution for the start-up trace.
func choiceTrace(n *physical.Node, costs []float64, picked int) obs.ChoiceTrace {
	labels := make([]string, len(n.Children))
	for i, c := range n.Children {
		labels[i] = c.Label()
	}
	return obs.NewChoice(n.Label(), labels, costs, picked)
}

// resolve walks the DAG and replaces every choose-plan with the
// alternative the chooser selects, producing a tree (a chosen plan uses
// each shared subplan at most once, since join operands cover disjoint
// relation sets). It returns the resolved root, the set of original DAG
// nodes the chosen plan uses, and the alternatives picked (one per
// choose-plan resolved, in resolution order).
func resolve(root *physical.Node, choose func(*physical.Node) (*physical.Node, float64)) (*physical.Node, map[*physical.Node]bool, []*physical.Node) {
	used := make(map[*physical.Node]bool)
	var picked []*physical.Node
	var walk func(n *physical.Node) *physical.Node
	walk = func(n *physical.Node) *physical.Node {
		used[n] = true
		if n.Op == physical.ChoosePlan {
			best, _ := choose(n)
			picked = append(picked, best)
			return walk(best)
		}
		changed := false
		children := make([]*physical.Node, len(n.Children))
		for i, c := range n.Children {
			children[i] = walk(c)
			if children[i] != c {
				changed = true
			}
		}
		if !changed {
			return n
		}
		clone := *n
		clone.Children = children
		return &clone
	}
	r := walk(root)
	return r, used, picked
}

// missingVars returns host variables the plan references that the
// bindings do not supply.
func missingVars(root *physical.Node, b *bindings.Bindings) []string {
	var missing []string
	for _, v := range root.Variables() {
		if _, ok := b.Sel[v]; !ok {
			missing = append(missing, v)
		}
	}
	return missing
}

// bbEvaluator evaluates plan costs with branch-and-bound: when an
// alternative's accumulated cost exceeds the best alternative seen so far,
// its evaluation is aborted. Complete evaluations are memoized so shared
// subplans still cost one evaluation.
type bbEvaluator struct {
	model     *physical.Model
	env       *bindings.Env
	memo      map[*physical.Node]physical.Result
	evaluated int
	// failed records, per aborted node, the largest budget it has failed
	// under: a node that exceeded budget B exceeds every budget ≤ B, so
	// shared subplans are not re-descended for hopeless budgets.
	failed map[*physical.Node]float64
}

func newBBEvaluator(model *physical.Model, env *bindings.Env) *bbEvaluator {
	return &bbEvaluator{
		model:  model,
		env:    env,
		memo:   make(map[*physical.Node]physical.Result),
		failed: make(map[*physical.Node]float64),
	}
}

// eval returns the node's evaluation result, or ok=false if its cost
// provably exceeds the budget (in which case the result is meaningless).
func (e *bbEvaluator) eval(n *physical.Node, budget float64) (physical.Result, bool) {
	if r, ok := e.memo[n]; ok {
		return r, r.Cost.Lo <= budget
	}
	if fb, ok := e.failed[n]; ok && budget <= fb {
		return physical.Result{}, false
	}
	if n.Op == physical.ChoosePlan {
		bestRes, ok := e.eval(n.Children[0], budget)
		for _, c := range n.Children[1:] {
			limit := budget
			if ok && bestRes.Cost.Lo < limit {
				limit = bestRes.Cost.Lo
			}
			if r, rok := e.eval(c, limit); rok && (!ok || r.Cost.Lo < bestRes.Cost.Lo) {
				bestRes, ok = r, true
			}
		}
		if !ok {
			e.fail(n, budget)
			return physical.Result{}, false
		}
		res := physical.Result{
			Card: bestRes.Card,
			Cost: bestRes.Cost.AddScalar(e.model.P.ChooseOverhead),
		}
		e.memo[n] = res
		e.evaluated++
		return res, res.Cost.Lo <= budget
	}

	remaining := budget
	for _, c := range n.Children {
		r, ok := e.eval(c, remaining)
		if !ok {
			e.fail(n, budget)
			return physical.Result{}, false
		}
		remaining -= r.Cost.Lo
	}
	// All children fit; evaluate the node itself through the model (the
	// session memoizes children it has already seen via our memo reuse).
	res := e.full(n)
	e.memo[n] = res
	e.evaluated++
	return res, res.Cost.Lo <= budget
}

// fail records an aborted evaluation so shared subplans are not
// re-descended under budgets that cannot succeed.
func (e *bbEvaluator) fail(n *physical.Node, budget float64) {
	if fb, ok := e.failed[n]; !ok || budget > fb {
		e.failed[n] = budget
	}
}

// full evaluates a node from its memoized children (eval's traversal order
// guarantees they are present).
func (e *bbEvaluator) full(n *physical.Node) physical.Result {
	kids := make([]physical.Result, len(n.Children))
	for i, c := range n.Children {
		kids[i] = e.memo[c]
	}
	return e.model.EvaluateNode(n, e.env, kids)
}

// choose selects the cheapest alternative of a choose-plan node using the
// memoized evaluations; alternatives that were aborted are treated as
// infinitely expensive (they cannot be cheapest).
func (e *bbEvaluator) choose(n *physical.Node) (*physical.Node, float64) {
	best := (*physical.Node)(nil)
	bestCost := math.Inf(1)
	for _, c := range n.Children {
		if r, ok := e.memo[c]; ok && r.Cost.Lo < bestCost {
			best, bestCost = c, r.Cost.Lo
		}
	}
	if best == nil {
		// Should not happen: at least one alternative completes.
		best = n.Children[0]
	}
	return best, bestCost
}

// prune rebuilds the plan DAG without the nodes the predicate drops (and
// without every plan that would have to run them), cloning only the spine
// above a change so shared subplans stay shared. Choose-plan operators
// keep their surviving alternatives, collapsing when one remains; any
// other operator with a dropped input is itself dropped. It returns
// ErrInfeasible when no complete plan survives.
func prune(root *physical.Node, drop func(*physical.Node) bool) (*physical.Node, error) {
	memo := make(map[*physical.Node]*physical.Node) // nil: dropped
	var walk func(n *physical.Node) *physical.Node
	walk = func(n *physical.Node) *physical.Node {
		if r, ok := memo[n]; ok {
			return r
		}
		memo[n] = nil
		if drop(n) {
			return nil
		}
		kept := make([]*physical.Node, 0, len(n.Children))
		for _, c := range n.Children {
			if r := walk(c); r != nil {
				kept = append(kept, r)
			} else if n.Op != physical.ChoosePlan {
				return nil
			}
		}
		result := n
		switch {
		case n.Op == physical.ChoosePlan && len(kept) == 0:
			return nil
		case n.Op == physical.ChoosePlan && len(kept) == 1:
			result = kept[0]
		case !slices.Equal(kept, n.Children):
			clone := *n
			clone.Children = kept
			result = &clone
		}
		memo[n] = result
		return result
	}
	pruned := walk(root)
	if pruned == nil {
		return nil, ErrInfeasible
	}
	return pruned, nil
}
