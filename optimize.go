package dynplan

import (
	"fmt"
	"math"
	"slices"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
)

// Uncertainty declares which parameters beyond the query's host variables
// are unknown at compile-time. Host-variable selectivities are always
// treated as unbound over [0, 1] by OptimizeDynamic.
type Uncertainty struct {
	// Memory models available memory as the range [MemoryLo, MemoryHi]
	// pages instead of the expected point value.
	Memory bool
}

// Plan is an optimized query evaluation plan: static (a single operator
// tree) or dynamic (a DAG with choose-plan operators).
type Plan struct {
	sys *System
	res *search.Result
}

// OptimizeStatic performs traditional compile-time optimization with
// point estimates (default selectivity, expected memory), producing a
// static plan — the paper's baseline.
func (s *System) OptimizeStatic(q *Query) (*Plan, error) {
	cfg := s.cfg
	cfg.FinalOrder = q.orderBy
	res, err := runtimeopt.OptimizeStatic(q.q, cfg)
	if err != nil {
		return nil, err
	}
	return &Plan{sys: s, res: res}, nil
}

// OptimizeDynamic performs dynamic-plan optimization: host-variable
// selectivities span [0, 1], memory optionally spans its range, and all
// plans whose cost intervals overlap are retained under choose-plan
// operators.
func (s *System) OptimizeDynamic(q *Query, u Uncertainty) (*Plan, error) {
	cfg := s.cfg
	cfg.FinalOrder = q.orderBy
	res, err := runtimeopt.OptimizeDynamic(q.q, cfg, u.Memory)
	if err != nil {
		return nil, err
	}
	return &Plan{sys: s, res: res}, nil
}

// OptimizeAt re-optimizes the query for one concrete binding set — the
// run-time-optimization baseline (Figure 3, middle scenario).
func (s *System) OptimizeAt(q *Query, b Bindings) (*Plan, error) {
	cfg := s.cfg
	cfg.FinalOrder = q.orderBy
	ib, err := b.internal()
	if err != nil {
		return nil, err
	}
	res, err := runtimeopt.OptimizeRuntime(q.q, ib, cfg)
	if err != nil {
		return nil, err
	}
	return &Plan{sys: s, res: res}, nil
}

// Cost returns the plan's anticipated cost interval.
func (p *Plan) Cost() CostInterval { return fromCost(p.res.Cost) }

// NodeCount returns the number of distinct operator nodes in the plan DAG.
func (p *Plan) NodeCount() int { return p.res.Plan.CountNodes() }

// ChoosePlanCount returns the number of choose-plan operators; zero for a
// static plan.
func (p *Plan) ChoosePlanCount() int { return p.res.Plan.CountChoosePlans() }

// Alternatives returns how many complete static plans the plan encodes
// (1 for a static plan).
func (p *Plan) Alternatives() float64 { return p.res.Plan.Alternatives() }

// IsDynamic reports whether the plan contains choose-plan operators.
func (p *Plan) IsDynamic() bool { return p.ChoosePlanCount() > 0 }

// Explain renders the plan as an indented operator tree; shared subplans
// are printed once and referenced afterwards.
func (p *Plan) Explain() string { return p.res.Plan.Format() }

// Stats returns the search-effort statistics of the optimization.
func (p *Plan) Stats() search.Stats { return p.res.Stats }

// Trace returns the optimizer span of the optimization that produced this
// plan: memo size, candidates enumerated, plans pruned versus kept
// incomparable, choose-plan operators emitted, and the produced plan's
// shape — the observability layer's machine-readable counterpart of
// Stats. It is assembled on the first call, not by every compile.
func (p *Plan) Trace() *OptimizerSpan { return p.res.Span() }

// Root exposes the physical plan DAG (advanced use).
func (p *Plan) Root() *physical.Node { return p.res.Plan }

// Module serializes the plan into an access module, the on-disk form read
// at start-up-time. The module carries the plan's compile-time predicted
// cost interval, the band the workload observatory's plan-level
// calibration verdict checks observed executions against.
func (p *Plan) Module() (*Module, error) {
	m, err := p.module()
	if err != nil {
		return nil, err
	}
	m.stats = plan.NewUsageStats()
	return m, nil
}

// module serializes the plan without a usage accumulator: its activations
// record nothing, which suits a module no caller can ask for its usage.
func (p *Plan) module() (*Module, error) {
	m, err := plan.NewModule(p.res.Plan, p.res.Stats.Nodes(), p.res.Stats.Edges())
	if err != nil {
		return nil, err
	}
	m.SetPlanCost(p.res.Cost)
	return &Module{sys: p.sys, mod: m}, nil
}

// Module is a serialized plan plus its usage statistics. The compiled
// access module inside is immutable and concurrently shareable (the plan
// cache hands one compiled module to many executions); the per-module
// usage statistics that drive the §4 shrinking heuristic live in a
// separate accumulator owned by this wrapper. A plan-cache module has
// none: PreparedQuery never hands it out, so nobody could read it.
type Module struct {
	sys   *System
	mod   *plan.AccessModule
	stats *plan.UsageStats
}

// LoadModule deserializes an access module previously obtained from
// Module.Bytes.
func (s *System) LoadModule(raw []byte) (*Module, error) {
	m, err := plan.Load(raw)
	if err != nil {
		return nil, err
	}
	return &Module{sys: s, mod: m, stats: plan.NewUsageStats()}, nil
}

// Bytes returns the serialized access module.
func (m *Module) Bytes() []byte { return m.mod.Bytes() }

// NodeCount returns the number of operator nodes in the module.
func (m *Module) NodeCount() int { return m.mod.NodeCount() }

// Variables returns the host variables the module's plan references, in
// sorted order — what an application must bind before Activate.
func (m *Module) Variables() []string { return slices.Clone(m.mod.Variables()) }

// UsageFraction returns the fraction of nodes used by at least one
// activation so far.
func (m *Module) UsageFraction() float64 { return m.mod.UsageFraction(m.stats) }

// Shrink applies the self-shrinking heuristic of §4: a new module
// containing only the components past activations have used, with fresh
// usage statistics.
func (m *Module) Shrink() (*Module, error) {
	sm, err := m.mod.Shrink(m.stats)
	if err != nil {
		return nil, err
	}
	return &Module{sys: m.sys, mod: sm, stats: plan.NewUsageStats()}, nil
}

// Bindings carries the run-time parameter values supplied when a query is
// invoked.
type Bindings struct {
	// Selectivities maps each host variable to the selectivity its bound
	// value implies; for a literal on an attribute that is value ÷ domain
	// size, the conversion Parse applies. Exec reads the map during the
	// call and neither writes nor keeps it, so one map may serve
	// concurrent calls.
	Selectivities map[string]float64
	// MemoryPages is the memory available to this invocation.
	MemoryPages float64
}

// internal validates the caller's bindings and converts them to the
// optimizer's form. It is the one place outside input is checked — every
// public entry point that takes Bindings converts exactly once and hands
// the converted value down — so a selectivity outside [0, 1] or a memory
// that is negative or not finite (NaN included) surfaces as
// ErrInvalidBindings instead of reaching the cost model. The result aliases
// the caller's map: nothing below writes or keeps a Sel map it was handed
// (reopt.Controller.CorrectBindings copies before it corrects).
func (b Bindings) internal() (*bindings.Bindings, error) {
	if !(b.MemoryPages >= 0) || math.IsInf(b.MemoryPages, 1) { // also rejects NaN
		return nil, fmt.Errorf("%w: memory of %g pages is not a finite, non-negative size", ErrInvalidBindings, b.MemoryPages)
	}
	for v, s := range b.Selectivities {
		if !(s >= 0 && s <= 1) { // also rejects NaN
			return nil, fmt.Errorf("%w: selectivity %g for host variable %q is outside [0, 1]", ErrInvalidBindings, s, v)
		}
	}
	return &bindings.Bindings{Sel: b.Selectivities, Memory: b.MemoryPages}, nil
}

// Activation is the outcome of starting a plan: the chosen alternative
// and the start-up expense.
type Activation struct {
	sys    *System
	report *plan.StartupReport
}

// Activate performs start-up-time processing: bindings are instantiated,
// choose-plan decision procedures run (each shared subplan's cost
// evaluated once), and the cheapest alternative is selected.
func (m *Module) Activate(b Bindings) (*Activation, error) {
	return m.activate(b, plan.StartupOptions{})
}

// activate is the shared body of the Activate* family: validate and
// convert the bindings, then run start-up processing under the options.
func (m *Module) activate(b Bindings, opts plan.StartupOptions) (*Activation, error) {
	ib, err := b.internal()
	if err != nil {
		return nil, err
	}
	opts.Params, opts.Usage = m.sys.cfg.Params, m.stats
	rep, err := m.mod.Activate(ib, opts)
	if err != nil {
		return nil, err
	}
	return &Activation{sys: m.sys, report: rep}, nil
}

// ErrInfeasible is returned by ActivateValidated when the current catalog
// no longer supports any complete plan in the module.
var ErrInfeasible = plan.ErrInfeasible

// ActivateValidated is Activate with catalog validation: alternatives
// requiring indexes that have been dropped since compile-time are
// excluded (the plan-infeasibility handling of System R that the paper's
// activation step includes). A dynamic plan survives index drops as long
// as a feasible alternative remains — one of the robustness benefits the
// paper attributes to choose-plan operators — while a static plan whose
// only access path vanished fails with ErrInfeasible and must be
// re-optimized.
func (m *Module) ActivateValidated(b Bindings) (*Activation, error) {
	return m.activate(b, plan.StartupOptions{
		IndexExists: func(rel, attr string) bool {
			r, err := m.sys.cat.Relation(rel)
			if err != nil {
				return false
			}
			a, err := r.Attribute(attr)
			if err != nil {
				return false
			}
			return a.BTree
		},
	})
}

// DropIndex removes the B-tree on rel.attr from the catalog, simulating
// the schema changes ("indexes are created and destroyed", §1) that make
// compile-time plans infeasible.
func (s *System) DropIndex(rel, attr string) error {
	r, err := s.cat.Relation(rel)
	if err != nil {
		return err
	}
	a, err := r.Attribute(attr)
	if err != nil {
		return err
	}
	a.BTree = false
	return nil
}

// CreateIndex declares a B-tree on rel.attr. Databases opened afterwards
// (or whose BuildIndexes is re-run) will build it.
func (s *System) CreateIndex(rel, attr string) error {
	r, err := s.cat.Relation(rel)
	if err != nil {
		return err
	}
	a, err := r.Attribute(attr)
	if err != nil {
		return err
	}
	a.BTree = true
	return nil
}

// Explain renders the chosen plan.
func (a *Activation) Explain() string { return a.report.Chosen.Format() }

// Chosen exposes the chosen plan tree (advanced use; it contains no
// choose-plan operators).
func (a *Activation) Chosen() *physical.Node { return a.report.Chosen }

// PredictedCost returns the cost model's prediction for the chosen plan
// under the activation's bindings.
func (a *Activation) PredictedCost() float64 { return a.report.ChosenCost }

// Decisions returns the number of choose-plan operators resolved.
func (a *Activation) Decisions() int { return a.report.Decisions }

// DecisionTrace returns the start-up decision trace: per choose-plan
// operator resolved, the alternatives compared, the predicted cost of
// each under the activation's bindings, the branch picked, and why.
func (a *Activation) DecisionTrace() []ChoiceTrace { return a.report.Trace }

// ExplainDecisions renders the start-up decision trace as text.
func (a *Activation) ExplainDecisions() string { return obs.RenderDecisions(a.report.Trace) }

// NodesEvaluated returns how many distinct plan nodes had their cost
// functions evaluated during start-up.
func (a *Activation) NodesEvaluated() int { return a.report.NodesEvaluated }

// String summarizes the activation.
func (a *Activation) String() string {
	return fmt.Sprintf("activation: %d decisions, %d nodes evaluated, predicted cost %.4gs",
		a.Decisions(), a.NodesEvaluated(), a.PredictedCost())
}
