// Package search is the extended search engine of the paper: the Volcano
// optimizer generator's top-down, memoizing dynamic programming adapted to
// costs that are only partially ordered at compile-time (§3).
//
// For every optimization goal (relation set, required physical property)
// the engine enumerates the candidates the rules package generates,
// optimizes their inputs recursively (memoized), computes interval costs,
// and prunes candidates whose cost interval is strictly dominated. When
// more than one candidate survives — their intervals overlap, or they are
// exactly equal (which the paper's prototype deliberately retains, §3) —
// the survivors are linked by a choose-plan operator, and the goal's
// winner is that single dynamic node, with cost equal to the bound-wise
// minimum of the alternatives plus the decision overhead. Because parents
// always consume one node per goal, the final plan is a DAG with shared
// subplans, the representation §3 identifies as essential.
//
// Branch-and-bound pruning works as in Volcano, but with the erosion the
// paper describes: with interval costs, only a candidate's accumulated
// *lower* bounds can be compared against the best known *upper* bound, so
// far fewer candidates are abandoned early than in traditional (point
// cost) optimization. The engine records statistics so the experiments can
// quantify exactly this effect (Figure 5).
package search

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dynplan/internal/bindings"
	"dynplan/internal/cost"
	"dynplan/internal/logical"
	"dynplan/internal/memo"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/rules"
)

// Config tunes the search engine.
type Config struct {
	// Params are the cost-model constants; zero value means defaults.
	Params physical.Params
	// PruneEqualCost drops all but one of a set of exactly-equal-cost
	// candidates instead of retaining them as choose-plan alternatives.
	// The paper's dynamic-plan prototype keeps equal plans ("the most
	// naive manner", §3); traditional static optimization implies
	// pruning. Static (all-point) optimization forces this on, since a
	// total order cannot yield incomparability.
	PruneEqualCost bool
	// FinalOrder optionally requires the root plan to deliver a sort
	// order (a qualified attribute), exercising the Sort enforcer at the
	// top, an extension beyond the paper's experiments.
	FinalOrder string
	// SampledDominance enables the heuristic §3 describes for plans
	// whose interval costs overlap although one "is actually
	// consistently cheaper than the other": evaluate both plans' cost
	// functions at this many sampled parameter settings and, if one is
	// no more expensive at every sample, drop the other. Zero disables
	// it (the paper's prototype's behavior, "the most naive manner").
	// The heuristic "guarantees optimal plans only inasmuch as" the
	// samples are representative: a plan that is optimal only in an
	// unsampled corner of the parameter space is lost.
	SampledDominance int
}

// Stats describes the effort of one optimization, the quantities behind
// Figure 5 and the search-effort discussion of §3.
type Stats struct {
	// Goals is the number of distinct optimization goals solved.
	Goals int
	// Candidates is the number of candidate implementations considered.
	Candidates int
	// PrunedByBound counts candidates abandoned by branch-and-bound
	// before all of their inputs were optimized.
	PrunedByBound int
	// PrunedDominated counts fully costed candidates discarded because
	// another candidate's interval strictly dominated theirs.
	PrunedDominated int
	// PrunedEqual counts candidates dropped by equal-cost pruning.
	PrunedEqual int
	// PrunedSampled counts candidates dropped by the sampled-dominance
	// heuristic.
	PrunedSampled int
	// KeptIncomparable is the number of plans kept beyond the first across
	// all goals: the mutually incomparable (or tied) survivors choose-plan
	// operators carry. Zero for a fully determined (static) optimization.
	KeptIncomparable int
	// Comparisons is the number of interval cost comparisons performed.
	Comparisons int
	// CandidatesByOp histograms the fully costed candidates by their root
	// operator (bound-pruned candidates are never built and not counted).
	CandidatesByOp map[physical.Op]int
	// ChoosePlans is the number of choose-plan operators inserted.
	ChoosePlans int
	// Elapsed is the wall-clock optimization time (the paper's a and e).
	Elapsed time.Duration
	// nodes counts the returned plan's distinct operators and edges the
	// inputs they list.
	nodes, edges int
}

// Nodes returns the number of distinct operators in the returned plan:
// the exact room its lowering reserves.
func (s *Stats) Nodes() int { return s.nodes }

// Edges returns how many inputs the returned plan's distinct operators
// list: the exact room its lowering reserves for them.
func (s *Stats) Edges() int { return s.edges }

// Result is the outcome of an optimization: the (possibly dynamic) plan,
// its cost interval, and the effort statistics. The machine-readable
// optimizer span the observability layer exposes is assembled from them
// on request (Span).
type Result struct {
	Plan  *physical.Node
	Cost  cost.Cost
	Card  cost.Range
	Stats Stats

	spanOnce sync.Once
	span     *obs.OptimizerSpan
}

// Span returns the optimizer span: the goals solved, the enumeration and
// pruning tallies, the produced plan's shape and predicted cost interval.
// It is assembled on the first call — walking the plan costs as much as a
// small optimization — and shared by every later (or concurrent) caller.
func (r *Result) Span() *obs.OptimizerSpan {
	r.spanOnce.Do(func() {
		r.span = &obs.OptimizerSpan{
			Goals:               r.Stats.Goals,
			Candidates:          r.Stats.Candidates,
			PrunedByBound:       r.Stats.PrunedByBound,
			PrunedDominated:     r.Stats.PrunedDominated,
			PrunedEqual:         r.Stats.PrunedEqual,
			PrunedSampled:       r.Stats.PrunedSampled,
			KeptIncomparable:    r.Stats.KeptIncomparable,
			Comparisons:         r.Stats.Comparisons,
			ChoosePlansEmitted:  r.Stats.ChoosePlans,
			PlanChoosePlans:     r.Plan.CountChoosePlans(),
			PlanNodes:           r.Stats.Nodes(),
			EncodedAlternatives: r.Plan.Alternatives(),
			CostLo:              r.Cost.Lo,
			CostHi:              r.Cost.Hi,
			WallNanos:           r.Stats.Elapsed.Nanoseconds(),
		}
	})
	return r.span
}

// Optimizer carries the state of one optimization run.
type Optimizer struct {
	env   *bindings.Env
	cfg   Config
	rules rules.Rules
	stats Stats
	// built counts the costed candidates by root operator, the tallies
	// Stats.CandidatesByOp reports.
	built [physical.TempScan + 1]int
	// samples are the fixed parameter settings of the sampled-dominance
	// heuristic.
	samples []*bindings.Bindings
	*scratch
}

// scratch is a search's working memory, recycled through scratches: the
// arena every candidate is built in, the memo, and the survivor stacks.
// Nothing in it outlives the search that borrows it, since Optimize
// returns a compacted copy of its plan.
type scratch struct {
	arena physical.Arena
	memo  *memo.Memo
	// survivors is a stack of the goals in progress' survivor sets: a goal
	// owns the entries from the length it found to the top, and the goals
	// it recurses into push above that and pop back before it resumes.
	survivors []candidatePlan
	// children and results are finish's scratch for the survivors' plans
	// and results.
	children []*physical.Node
	results  []physical.Result
}

var scratches = sync.Pool{New: func() any { return &scratch{memo: memo.New()} }}

// Optimize builds the optimal — or optimally adaptable, when parameters
// are unbound — plan for the query under the environment. With an
// all-point environment it behaves exactly like a traditional optimizer
// and returns a static plan; with interval parameters it returns a dynamic
// plan that is guaranteed to contain every potentially optimal plan for
// every run-time binding within the environment (§3, "Guarantees of
// Optimality").
func Optimize(q *logical.Query, env *bindings.Env, cfg Config) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if cfg.Params == (physical.Params{}) {
		cfg.Params = physical.DefaultParams()
	}
	if env.IsPoint() {
		// A total order cannot produce incomparability; retaining exact
		// ties would make "static" plans dynamic.
		cfg.PruneEqualCost = true
	}
	start := time.Now()
	o := &Optimizer{env: env, cfg: cfg, rules: rules.New(q), scratch: scratches.Get().(*scratch)}
	defer func() {
		o.memo.Reset()
		o.arena.Reset()
		o.survivors = o.survivors[:0] // a failed search leaves its stack
		scratches.Put(o.scratch)
	}()
	root := memo.Goal{Set: q.AllRels(), Prop: physical.Prop{Order: cfg.FinalOrder}}
	w, err := o.optimizeGoal(root)
	if err != nil {
		return nil, err
	}
	w.Plan, o.stats.nodes, o.stats.edges = o.arena.Compact(w.Plan)
	o.stats.Goals = o.memo.Len()
	o.stats.CandidatesByOp = make(map[physical.Op]int)
	for op, n := range o.built {
		if n > 0 {
			o.stats.CandidatesByOp[physical.Op(op)] = n
		}
	}
	o.stats.Elapsed = time.Since(start)
	return &Result{Plan: w.Plan, Cost: w.Cost, Card: w.Card, Stats: o.stats}, nil
}

// candidatePlan is a fully costed candidate awaiting the pruning pass.
type candidatePlan struct {
	node *physical.Node
	res  physical.Result
}

// optimizeGoal solves one goal, memoized.
func (o *Optimizer) optimizeGoal(g memo.Goal) (memo.Winner, error) {
	if w, ok := o.memo.Lookup(g); ok {
		return w, nil
	}

	// bound is the branch-and-bound limit: the lowest *upper* bound of
	// any fully costed candidate so far. With interval costs this is the
	// only sound limit (§5), which is precisely why pruning erodes
	// relative to point-cost optimization.
	bound := cost.Infinite()
	base := len(o.survivors)

cands:
	for cand := range o.rules.Candidates(g.Set, g.Prop) {
		o.stats.Candidates++
		inputs := cand.Inputs()
		var kids [2]physical.Result
		var winners [2]*physical.Node
		childCost := cost.Point(0)
		for i, in := range inputs {
			w, err := o.optimizeGoal(in)
			if err != nil {
				return w, err
			}
			winners[i], kids[i] = w.Plan, physical.Result{Card: w.Card, Cost: w.Cost}
			childCost = childCost.Add(w.Cost)
			// Abandon the candidate if the inputs optimized so far
			// already exceed the limit: "stop optimizing the second input
			// only when the two inputs' minimum costs together exceed the
			// bound" (§3).
			if childCost.Lo > bound.Hi {
				o.stats.PrunedByBound++
				continue cands
			}
		}
		node := cand.Build(&o.arena, winners[:len(inputs)]...)
		in := kids[:len(inputs)]
		if len(inputs) == 0 && len(node.Children) == 1 {
			// An access path's Filter sits over its own fresh scan.
			kids[0], in = physical.EvaluateNode(&o.cfg.Params, node.Children[0], o.env, nil), kids[:1]
		}
		res := physical.EvaluateNode(&o.cfg.Params, node, o.env, in)
		if g.Prop.Order != "" && node.Ordering() != g.Prop.Order {
			return memo.Winner{}, fmt.Errorf("search: candidate %s does not deliver %s", cand.Desc(), g.Prop)
		}
		o.built[node.Op]++
		// A filtered access path is one candidate but exercises two
		// algorithms; credit the scan underneath as well.
		if node.Op == physical.Filter && node.Children[0].Op.IsScan() {
			o.built[node.Children[0].Op]++
		}
		if res.Cost.Lo > bound.Hi {
			o.stats.PrunedByBound++
			continue
		}
		if res.Cost.Hi < bound.Hi {
			bound = res.Cost
		}
		o.survivors = o.insert(o.survivors, base, candidatePlan{node: node, res: res})
	}

	// The first costed candidate always survives, so only a goal without
	// candidates ends up here empty.
	if len(o.survivors) == base {
		return memo.Winner{}, fmt.Errorf("search: no candidates for goal %s", g)
	}
	w := o.finish(o.survivors[base:])
	o.survivors = o.survivors[:base]
	o.memo.Store(g, w)
	return w, nil
}

// insert adds a costed candidate to the goal's survivor set, the entries
// of all from base on, maintaining the invariant that survivors are
// mutually incomparable (or equal, when equal-cost retention is on). This
// realizes the partial-order pruning of §3: a candidate is discarded
// exactly when some other plan's interval is provably no worse for every
// run-time binding. Survivors keep their relative order and the newcomer
// goes last, so the set stays in enumeration order — the order the goal's
// choose-plan lists its alternatives in.
func (o *Optimizer) insert(all []candidatePlan, base int, c candidatePlan) []candidatePlan {
	kept := all[:base]
	for _, s := range all[base:] {
		o.stats.Comparisons++
		switch s.res.Cost.Compare(c.res.Cost) {
		case cost.Less:
			// Existing plan dominates the newcomer.
			o.stats.PrunedDominated++
			return all
		case cost.Equal:
			if o.cfg.PruneEqualCost {
				o.stats.PrunedEqual++
				return all
			}
			kept = append(kept, s)
		case cost.Greater:
			// Newcomer dominates this survivor.
			o.stats.PrunedDominated++
		case cost.Incomparable:
			if o.cfg.SampledDominance > 0 {
				switch o.sampledCompare(s.node, c.node) {
				case cost.Less:
					o.stats.PrunedSampled++
					return all
				case cost.Greater:
					o.stats.PrunedSampled++
					continue
				}
			}
			kept = append(kept, s)
		}
	}
	return append(kept, c)
}

// sampledCompare evaluates two plans at the heuristic's fixed parameter
// samples (§3): Less/Greater when one plan is no more expensive at every
// sample (and strictly cheaper at one), Incomparable otherwise. The two
// plans are lowered together, so a subplan they share is costed once per
// sample.
func (o *Optimizer) sampledCompare(a, b *physical.Node) cost.Ordering {
	if o.samples == nil {
		o.samples = o.makeSamples(o.cfg.SampledDominance)
	}
	prog, err := physical.Lower(0, 0, a, b)
	if err != nil {
		// Candidates are well formed; an unlowerable pair proves nothing.
		return cost.Incomparable
	}
	ia, ib, e := prog.Index(a), prog.Index(b), prog.NewEval()
	aWins, bWins := 0, 0
	for _, sample := range o.samples {
		o.stats.Comparisons++
		prog.Bind(&e, sample)
		prog.Sweep(&o.cfg.Params, &e)
		ca, cb := e.Cost[ia], e.Cost[ib]
		switch {
		case ca < cb:
			aWins++
		case cb < ca:
			bWins++
		}
		if aWins > 0 && bWins > 0 {
			return cost.Incomparable
		}
	}
	switch {
	case aWins > 0 && bWins == 0:
		return cost.Less
	case bWins > 0 && aWins == 0:
		return cost.Greater
	default:
		return cost.Incomparable
	}
}

// makeSamples draws k deterministic point bindings from within the
// optimizer's uncertain environment.
func (o *Optimizer) makeSamples(k int) []*bindings.Bindings {
	rng := rand.New(rand.NewSource(794)) // fixed: sampling must be reproducible
	vars := o.env.Vars()
	samples := make([]*bindings.Bindings, 0, k)
	for i := 0; i < k; i++ {
		b := bindings.NewBindings(o.env.Memory.Lo + rng.Float64()*(o.env.Memory.Hi-o.env.Memory.Lo))
		for _, v := range vars {
			r := o.env.Selectivity(v)
			b.Sel[v] = r.Lo + rng.Float64()*(r.Hi-r.Lo)
		}
		samples = append(samples, b)
	}
	return samples
}

// finish converts the survivor set into the goal's winner, inserting a
// choose-plan enforcer when more than one plan survived.
func (o *Optimizer) finish(survivors []candidatePlan) memo.Winner {
	if len(survivors) == 1 {
		s := survivors[0]
		return memo.Winner{Plan: s.node, Cost: s.res.Cost, Card: s.res.Card}
	}
	o.stats.ChoosePlans++
	o.stats.KeptIncomparable += len(survivors) - 1
	o.children, o.results = o.children[:0], o.results[:0]
	for _, s := range survivors {
		o.children = append(o.children, s.node)
		o.results = append(o.results, s.res)
	}
	choose := o.arena.New(physical.Node{Op: physical.ChoosePlan, RowBytes: o.children[0].RowBytes}, o.children...)
	res := physical.EvaluateNode(&o.cfg.Params, choose, o.env, o.results)
	return memo.Winner{Plan: choose, Cost: res.Cost, Card: res.Card}
}
