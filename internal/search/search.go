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
	"sort"
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
	// Comparisons is the number of interval cost comparisons performed.
	Comparisons int
	// CandidatesByOp histograms the fully costed candidates by their root
	// operator (bound-pruned candidates are never built and not counted).
	CandidatesByOp map[physical.Op]int
	// ChoosePlans is the number of choose-plan operators inserted.
	ChoosePlans int
	// LogicalAlternatives is the number of distinct bushy join trees of
	// the query (the paper reports these counts per query in §6).
	LogicalAlternatives float64
	// Elapsed is the wall-clock optimization time (the paper's a and e).
	Elapsed time.Duration
}

// Result is the outcome of an optimization: the (possibly dynamic) plan,
// its cost interval, the effort statistics, and the machine-readable
// optimizer span the observability layer exposes.
type Result struct {
	Plan  *physical.Node
	Cost  cost.Cost
	Card  cost.Range
	Memo  *memo.Memo
	Stats Stats
	Span  *obs.OptimizerSpan
}

// Optimizer carries the state of one optimization run.
type Optimizer struct {
	query *logical.Query
	env   *bindings.Env
	cfg   Config
	model *physical.Model
	sess  *physical.Session
	memo  *memo.Memo
	stats Stats
	// samples are the fixed parameter settings of the sampled-dominance
	// heuristic; each keeps its own evaluation session so shared
	// subplans are costed once per sample across all comparisons.
	samples []*physical.Session
}

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
	model := physical.NewModel(cfg.Params)
	o := &Optimizer{
		query: q,
		env:   env,
		cfg:   cfg,
		model: model,
		sess:  model.NewSession(env),
		memo:  memo.New(),
	}
	start := time.Now()
	root := memo.Goal{Set: q.AllRels(), Prop: physical.Prop{Order: cfg.FinalOrder}}
	w, err := o.optimizeGoal(root)
	if err != nil {
		return nil, err
	}
	o.stats.Goals = o.memo.Len()
	o.stats.LogicalAlternatives = q.LogicalAlternatives(q.AllRels())
	o.stats.Elapsed = time.Since(start)
	return &Result{
		Plan: w.Plan, Cost: w.Cost, Card: w.Card, Memo: o.memo, Stats: o.stats,
		Span: o.span(w.Plan, w.Cost),
	}, nil
}

// span assembles the optimizer span the observability layer exposes: the
// memo's size, the enumeration and pruning tallies, the shape of the
// produced plan, and its predicted cost interval.
func (o *Optimizer) span(plan *physical.Node, c cost.Cost) *obs.OptimizerSpan {
	return &obs.OptimizerSpan{
		Goals:               o.memo.Len(),
		Candidates:          o.stats.Candidates,
		PrunedByBound:       o.stats.PrunedByBound,
		PrunedDominated:     o.stats.PrunedDominated,
		PrunedEqual:         o.stats.PrunedEqual,
		PrunedSampled:       o.stats.PrunedSampled,
		KeptIncomparable:    o.memo.ExtraAlternatives(),
		Comparisons:         o.stats.Comparisons,
		ChoosePlansEmitted:  o.stats.ChoosePlans,
		PlanChoosePlans:     plan.CountChoosePlans(),
		PlanNodes:           plan.CountNodes(),
		EncodedAlternatives: plan.Alternatives(),
		CostLo:              c.Lo,
		CostHi:              c.Hi,
		WallNanos:           o.stats.Elapsed.Nanoseconds(),
	}
}

// candidatePlan is a fully costed candidate awaiting the pruning pass.
type candidatePlan struct {
	node *physical.Node
	res  physical.Result
	desc string
	seq  int
}

// optimizeGoal solves one goal, memoized.
func (o *Optimizer) optimizeGoal(g memo.Goal) (*memo.Winner, error) {
	if w, ok := o.memo.Lookup(g); ok {
		return w, nil
	}

	cands := rules.Enumerate(o.query, g.Set, g.Prop)
	if len(cands) == 0 {
		return nil, fmt.Errorf("search: no candidates for goal %s", g)
	}

	// bound is the branch-and-bound limit: the lowest *upper* bound of
	// any fully costed candidate so far. With interval costs this is the
	// only sound limit (§5), which is precisely why pruning erodes
	// relative to point-cost optimization.
	bound := cost.Infinite()
	var survivors []candidatePlan

cands:
	for seq, cand := range cands {
		o.stats.Candidates++
		children := make([]*physical.Node, 0, len(cand.Inputs))
		childCost := cost.Point(0)
		for _, in := range cand.Inputs {
			w, err := o.optimizeGoal(in)
			if err != nil {
				return nil, err
			}
			children = append(children, w.Plan)
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
		node := cand.Build(children)
		if !node.Delivered().Satisfies(g.Prop) {
			return nil, fmt.Errorf("search: candidate %s does not deliver %s", cand.Desc, g.Prop)
		}
		if o.stats.CandidatesByOp == nil {
			o.stats.CandidatesByOp = make(map[physical.Op]int)
		}
		o.stats.CandidatesByOp[node.Op]++
		// A filtered access path is one candidate but exercises two
		// algorithms; credit the scan underneath as well.
		if node.Op == physical.Filter && node.Children[0].Op.IsScan() {
			o.stats.CandidatesByOp[node.Children[0].Op]++
		}
		res := o.sess.Evaluate(node)
		if res.Cost.Lo > bound.Hi {
			o.stats.PrunedByBound++
			continue
		}
		if res.Cost.Hi < bound.Hi {
			bound = res.Cost
		}
		survivors = o.insert(survivors, candidatePlan{node: node, res: res, desc: cand.Desc, seq: seq})
	}

	if len(survivors) == 0 {
		return nil, fmt.Errorf("search: all candidates pruned for goal %s", g)
	}
	w := o.finish(survivors)
	o.memo.Store(g, w)
	return w, nil
}

// insert adds a costed candidate to the survivor set, maintaining the
// invariant that survivors are mutually incomparable (or equal, when
// equal-cost retention is on). This realizes the partial-order pruning of
// §3: a candidate is discarded exactly when some other plan's interval is
// provably no worse for every run-time binding.
func (o *Optimizer) insert(survivors []candidatePlan, c candidatePlan) []candidatePlan {
	kept := survivors[:0]
	for _, s := range survivors {
		o.stats.Comparisons++
		switch s.res.Cost.Compare(c.res.Cost) {
		case cost.Less:
			// Existing plan dominates the newcomer.
			o.stats.PrunedDominated++
			return survivors
		case cost.Equal:
			if o.cfg.PruneEqualCost {
				o.stats.PrunedEqual++
				return survivors
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
					return survivors
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
// sample (and strictly cheaper at one), Incomparable otherwise.
func (o *Optimizer) sampledCompare(a, b *physical.Node) cost.Ordering {
	if o.samples == nil {
		o.samples = o.makeSamples(o.cfg.SampledDominance)
	}
	aWins, bWins := 0, 0
	for _, sess := range o.samples {
		o.stats.Comparisons++
		ca := sess.Evaluate(a).Cost.Lo
		cb := sess.Evaluate(b).Cost.Lo
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

// makeSamples draws k deterministic point environments from within the
// optimizer's uncertain environment.
func (o *Optimizer) makeSamples(k int) []*physical.Session {
	rng := rand.New(rand.NewSource(794)) // fixed: sampling must be reproducible
	vars := o.env.Vars()
	sessions := make([]*physical.Session, 0, k)
	for i := 0; i < k; i++ {
		mem := o.env.Memory.Lo + rng.Float64()*(o.env.Memory.Hi-o.env.Memory.Lo)
		env := bindings.NewEnv(cost.PointRange(mem))
		for _, v := range vars {
			r := o.env.Selectivity(v)
			env.Bind(v, cost.PointRange(r.Lo+rng.Float64()*(r.Hi-r.Lo)))
		}
		sessions = append(sessions, o.model.NewSession(env))
	}
	return sessions
}

// finish converts the survivor set into the goal's winner, inserting a
// choose-plan enforcer when more than one plan survived.
func (o *Optimizer) finish(survivors []candidatePlan) *memo.Winner {
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].seq < survivors[j].seq })
	if len(survivors) == 1 {
		s := survivors[0]
		return &memo.Winner{Plan: s.node, Cost: s.res.Cost, Card: s.res.Card, Alternatives: 1}
	}
	o.stats.ChoosePlans++
	children := make([]*physical.Node, len(survivors))
	for i, s := range survivors {
		children[i] = s.node
	}
	choose := &physical.Node{
		Op:       physical.ChoosePlan,
		RowBytes: children[0].RowBytes,
		Children: children,
	}
	res := o.sess.Evaluate(choose)
	return &memo.Winner{Plan: choose, Cost: res.Cost, Card: res.Card, Alternatives: len(survivors)}
}
