package search

import (
	"fmt"
	"math/rand"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/catalog"
	"dynplan/internal/cost"
	"dynplan/internal/logical"
	"dynplan/internal/memo"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/rules"
)

// randomQuery generates a small random query: a tree-shaped join graph
// over n relations with random statistics; each relation carries an
// unbound, bound, or absent selection.
func randomQuery(rng *rand.Rand, n int) *logical.Query {
	q := &logical.Query{}
	for i := 0; i < n; i++ {
		card := 50 + rng.Intn(950)
		dom := func() int { return 1 + int(float64(card)*(0.2+rng.Float64()*1.05)) }
		rel := catalog.NewRelation(fmt.Sprintf("T%d", i), card, 512,
			catalog.NewAttribute("a", dom(), rng.Intn(4) != 0),
			catalog.NewAttribute("j0", dom(), rng.Intn(3) != 0),
			catalog.NewAttribute("j1", dom(), rng.Intn(3) != 0),
		)
		qr := logical.QRel{Rel: rel}
		switch rng.Intn(3) {
		case 0:
			qr.Pred = &logical.SelPred{Attr: rel.MustAttribute("a"), Variable: fmt.Sprintf("v%d", i)}
		case 1:
			qr.Pred = &logical.SelPred{Attr: rel.MustAttribute("a"), FixedSel: 0.01 + rng.Float64()*0.98}
		}
		q.Rels = append(q.Rels, qr)
	}
	// Random spanning tree: attach each relation i > 0 to a random
	// earlier one.
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		q.Edges = append(q.Edges, logical.JoinEdge{
			Left: j, Right: i,
			LeftAttr:  q.Rels[j].Rel.MustAttribute("j1"),
			RightAttr: q.Rels[i].Rel.MustAttribute("j0"),
		})
	}
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return q
}

// allPlans enumerates every complete physical plan for a goal with no
// pruning whatsoever — the brute-force reference the search engine is
// verified against. Only usable for tiny queries.
func allPlans(q *logical.Query, g memo.Goal, cache map[memo.Goal][]*physical.Node) []*physical.Node {
	if plans, ok := cache[g]; ok {
		return plans
	}
	var out []*physical.Node
	for c := range rules.New(q).Candidates(g.Set, g.Prop) {
		if len(c.Inputs()) == 0 {
			out = append(out, c.Build(new(physical.Arena)))
			continue
		}
		childPlans := make([][]*physical.Node, len(c.Inputs()))
		for i, in := range c.Inputs() {
			childPlans[i] = allPlans(q, in, cache)
		}
		// Cartesian product over input choices.
		idx := make([]int, len(childPlans))
		for {
			children := make([]*physical.Node, len(childPlans))
			for i, k := range idx {
				children[i] = childPlans[i][k]
			}
			out = append(out, c.Build(new(physical.Arena), children...))
			p := len(idx) - 1
			for p >= 0 {
				idx[p]++
				if idx[p] < len(childPlans[p]) {
					break
				}
				idx[p] = 0
				p--
			}
			if p < 0 {
				break
			}
		}
	}
	cache[g] = out
	return out
}

// bruteForceBest returns the minimal point cost over every plan.
func bruteForceBest(q *logical.Query, env *bindings.Env, model *physical.Model) float64 {
	cache := make(map[memo.Goal][]*physical.Node)
	plans := allPlans(q, memo.Goal{Set: q.AllRels()}, cache)
	best := -1.0
	for _, p := range plans {
		c := model.Evaluate(p, env).Cost.Lo
		if best < 0 || c < best {
			best = c
		}
	}
	return best
}

// resolveAt reduces a dynamic plan to the static plan its choose-plan
// decision procedures select under a point environment.
func resolveAt(t *testing.T, model *physical.Model, n *physical.Node, env *bindings.Env) *physical.Node {
	t.Helper()
	b := bindings.NewBindings(env.Memory.Lo)
	for v, r := range env.Sel {
		b.Sel[v] = r.Lo
	}
	prog, err := physical.Lower(0, n)
	if err != nil {
		t.Fatal(err)
	}
	e := prog.At(&model.P, b)
	chosen, _ := prog.Resolve(&model.P, &e, int32(len(prog.Nodes)-1))
	return chosen
}

func pointEnv(rng *rand.Rand, q *logical.Query, memLo, memHi float64) *bindings.Env {
	env := bindings.NewEnv(cost.PointRange(memLo + rng.Float64()*(memHi-memLo)))
	for _, v := range q.Variables() {
		env.Bind(v, cost.PointRange(rng.Float64()))
	}
	return env
}

// TestStaticOptimalityVsBruteForce: with a fully bound environment the
// search engine must find exactly the minimum-cost plan of the complete
// plan space (dynamic programming + branch-and-bound is exact).
func TestStaticOptimalityVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	model := physical.NewModel(physical.DefaultParams())
	for trial := 0; trial < 60; trial++ {
		q := randomQuery(rng, 1+rng.Intn(3))
		env := pointEnv(rng, q, 16, 112)
		res, err := Optimize(q, env, Config{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Plan.CountChoosePlans() != 0 {
			t.Fatalf("trial %d: static optimization produced choose-plans", trial)
		}
		got := model.Evaluate(res.Plan, env).Cost.Lo
		want := bruteForceBest(q, env, model)
		if !close(got, want) {
			t.Fatalf("trial %d: search found %g, brute force %g\nquery: %s\nplan:\n%s",
				trial, got, want, q, res.Plan.Format())
		}
		if !close(res.Cost.Lo, got) {
			t.Fatalf("trial %d: reported cost %g, evaluated %g", trial, res.Cost.Lo, got)
		}
	}
}

// TestDynamicGuarantee is the paper's central claim (§3, "Guarantees of
// Optimality"): for every run-time binding, the plan a dynamic plan's
// choose-plan operators select is as good as the plan produced by full
// re-optimization with that binding (∀i gᵢ = dᵢ), up to the choose-plan
// decision overhead folded into compile-time cost intervals.
func TestDynamicGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	params := physical.DefaultParams()
	model := physical.NewModel(params)
	for trial := 0; trial < 40; trial++ {
		q := randomQuery(rng, 1+rng.Intn(3))
		memUncertain := trial%2 == 0
		mem := cost.PointRange(params.ExpectedMemory)
		if memUncertain {
			mem = cost.NewRange(params.MemoryLo, params.MemoryHi)
		}
		wide := bindings.NewEnv(mem)
		for _, v := range q.Variables() {
			wide.Bind(v, cost.NewRange(0, 1))
		}
		res, err := Optimize(q, wide, Config{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		eps := params.ChooseOverhead*float64(res.Plan.CountChoosePlans()) + 1e-9

		for draw := 0; draw < 15; draw++ {
			env := pointEnv(rng, q, params.MemoryLo, params.MemoryHi)
			if !memUncertain {
				env.Memory = cost.PointRange(params.ExpectedMemory)
			}
			chosen := resolveAt(t, model, res.Plan, env)
			got := model.Evaluate(chosen, env).Cost.Lo
			want := bruteForceBest(q, env, model)
			if got < want-1e-9 {
				t.Fatalf("trial %d: chosen plan cheaper than brute force (%g < %g) — evaluator bug", trial, got, want)
			}
			if got > want+eps {
				t.Fatalf("trial %d draw %d: chosen plan costs %g, optimal %g (eps %g)\nquery: %s",
					trial, draw, got, want, eps, q)
			}
		}
	}
}

// TestDynamicPlanContainsStaticChoice: the compile-time interval of the
// dynamic plan must contain the resolved point cost for any binding.
func TestDynamicPlanCostEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	params := physical.DefaultParams()
	model := physical.NewModel(params)
	for trial := 0; trial < 30; trial++ {
		q := randomQuery(rng, 1+rng.Intn(3))
		wide := bindings.NewEnv(cost.NewRange(params.MemoryLo, params.MemoryHi))
		for _, v := range q.Variables() {
			wide.Bind(v, cost.NewRange(0, 1))
		}
		res, err := Optimize(q, wide, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for draw := 0; draw < 10; draw++ {
			env := pointEnv(rng, q, params.MemoryLo, params.MemoryHi)
			pt := model.Evaluate(res.Plan, env).Cost.Lo
			if pt < res.Cost.Lo-1e-9 || pt > res.Cost.Hi+1e-9 {
				t.Fatalf("trial %d: point cost %g outside compile-time interval %v", trial, pt, res.Cost)
			}
		}
	}
}

func paperishQuery(n int) *logical.Query {
	rng := rand.New(rand.NewSource(7))
	q := &logical.Query{}
	for i := 0; i < n; i++ {
		card := 100 + rng.Intn(901)
		dom := func() int { return 1 + int(float64(card)*(0.2+rng.Float64()*1.05)) }
		rel := catalog.NewRelation(fmt.Sprintf("R%d", i+1), card, 512,
			catalog.NewAttribute("a", dom(), true),
			catalog.NewAttribute("jl", dom(), true),
			catalog.NewAttribute("jh", dom(), true),
		)
		q.Rels = append(q.Rels, logical.QRel{Rel: rel,
			Pred: &logical.SelPred{Attr: rel.MustAttribute("a"), Variable: fmt.Sprintf("v%d", i+1)}})
	}
	for i := 0; i+1 < n; i++ {
		q.Edges = append(q.Edges, logical.JoinEdge{Left: i, Right: i + 1,
			LeftAttr:  q.Rels[i].Rel.MustAttribute("jh"),
			RightAttr: q.Rels[i+1].Rel.MustAttribute("jl")})
	}
	return q
}

func dynamicEnv(q *logical.Query) *bindings.Env {
	env := bindings.NewEnv(cost.NewRange(16, 112))
	for _, v := range q.Variables() {
		env.Bind(v, cost.NewRange(0, 1))
	}
	return env
}

// TestSpanOnRequest: the optimizer span is assembled by the first Span
// call, and every caller — concurrent ones included — shares that one.
func TestSpanOnRequest(t *testing.T) {
	q := paperishQuery(4)
	res, err := Optimize(q, dynamicEnv(q), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.span != nil {
		t.Fatal("Optimize assembled the span nobody asked for")
	}
	spans := make(chan *obs.OptimizerSpan, 8)
	for range cap(spans) {
		go func() { spans <- res.Span() }()
	}
	first := <-spans
	for range cap(spans) - 1 {
		if s := <-spans; s != first {
			t.Fatal("concurrent callers got different spans")
		}
	}
	if first.PlanNodes != res.Plan.CountNodes() || first.Goals != res.Stats.Goals ||
		first.WallNanos != res.Stats.Elapsed.Nanoseconds() {
		t.Errorf("span %+v disagrees with the result", first)
	}
}

func TestStatsConsistency(t *testing.T) {
	q := paperishQuery(4)
	res, err := Optimize(q, dynamicEnv(q), Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Goals <= 0 || st.Candidates <= 0 || st.Comparisons <= 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	if st.ChoosePlans != res.Plan.CountChoosePlans() {
		t.Errorf("stats report %d choose-plans, plan has %d", st.ChoosePlans, res.Plan.CountChoosePlans())
	}
	if st.Elapsed <= 0 {
		t.Error("elapsed time not recorded")
	}
	if n := res.Plan.CountNodes(); st.Nodes() != n {
		t.Errorf("stats report %d plan nodes, plan has %d", st.Nodes(), n)
	}
	// Every choose-plan in the plan is some goal's winner, so the plan
	// carries at most the alternatives the goals kept.
	extra := 0
	res.Plan.Walk(func(n *physical.Node) {
		if n.Op == physical.ChoosePlan {
			extra += len(n.Children) - 1
		}
	})
	if extra == 0 || extra > st.KeptIncomparable {
		t.Errorf("plan's choose-plans carry %d extra alternatives, goals kept %d", extra, st.KeptIncomparable)
	}
}

// TestBnBMoreEffectiveForStatic reproduces the asymmetry of §3: with
// point costs the bound prunes far more candidates than with intervals.
func TestBnBMoreEffectiveForStatic(t *testing.T) {
	q := paperishQuery(6)
	params := physical.DefaultParams()
	staticEnv := bindings.NewEnv(cost.PointRange(params.ExpectedMemory))
	for _, v := range q.Variables() {
		staticEnv.Bind(v, cost.PointRange(params.DefaultSelectivity))
	}
	st, err := Optimize(q, staticEnv, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dy, err := Optimize(q, dynamicEnv(q), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats.PrunedByBound <= dy.Stats.PrunedByBound {
		t.Errorf("expected stronger pruning for static: static=%d dynamic=%d",
			st.Stats.PrunedByBound, dy.Stats.PrunedByBound)
	}
}

// TestEqualCostRetention: the paper keeps equal-cost plans (e.g. the two
// merge joins of the same inputs); pruning them must shrink the plan.
func TestEqualCostRetention(t *testing.T) {
	q := paperishQuery(3)
	env := dynamicEnv(q)
	keep, err := Optimize(q, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	prune, err := Optimize(q, env, Config{PruneEqualCost: true})
	if err != nil {
		t.Fatal(err)
	}
	if prune.Stats.PrunedEqual == 0 {
		t.Error("equal-cost pruning never fired (merge-join twins should be equal)")
	}
	if prune.Plan.CountNodes() >= keep.Plan.CountNodes() {
		t.Errorf("pruned plan not smaller: %d vs %d nodes",
			prune.Plan.CountNodes(), keep.Plan.CountNodes())
	}
	if keep.Cost != prune.Cost {
		t.Errorf("equal-cost pruning changed the cost envelope: %v vs %v", keep.Cost, prune.Cost)
	}
}

func TestFinalOrderDelivered(t *testing.T) {
	q := paperishQuery(3)
	order := "R3.a"
	res, err := Optimize(q, dynamicEnv(q), Config{FinalOrder: order})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Plan.Ordering(); got != order {
		t.Errorf("root delivers %q, want %q", got, order)
	}
}

func TestStaticPlanStructure(t *testing.T) {
	q := paperishQuery(5)
	params := physical.DefaultParams()
	env := bindings.NewEnv(cost.PointRange(params.ExpectedMemory))
	for _, v := range q.Variables() {
		env.Bind(v, cost.PointRange(params.DefaultSelectivity))
	}
	res, err := Optimize(q, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.CountChoosePlans() != 0 {
		t.Error("static plan contains choose-plan operators")
	}
	if !res.Cost.IsPoint() {
		t.Errorf("static cost is an interval: %v", res.Cost)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	q := paperishQuery(4)
	env := dynamicEnv(q)
	a, err := Optimize(q, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(q, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.Format() != b.Plan.Format() {
		t.Error("optimization is not deterministic")
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	q := paperishQuery(3)
	q.Edges = nil // disconnect
	if _, err := Optimize(q, dynamicEnv(q), Config{}); err == nil {
		t.Error("disconnected query accepted")
	}
}

// TestDynamicPlanGrowsWithUncertainty mirrors Figure 6's growth shape.
func TestDynamicPlanGrowsWithUncertainty(t *testing.T) {
	var prev int
	for _, n := range []int{1, 2, 4} {
		q := paperishQuery(n)
		res, err := Optimize(q, dynamicEnv(q), Config{})
		if err != nil {
			t.Fatal(err)
		}
		nodes := res.Plan.CountNodes()
		if nodes <= prev {
			t.Errorf("plan size did not grow: %d relations -> %d nodes (prev %d)", n, nodes, prev)
		}
		prev = nodes
	}
}

// TestMemoRecordsChoosePlanWinner: dynamic optimization memoizes the
// incomparable alternatives of some goal as a choose-plan winner, which
// the plan consumes.
func TestMemoRecordsChoosePlanWinner(t *testing.T) {
	q := paperishQuery(2)
	res, err := Optimize(q, dynamicEnv(q), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.KeptIncomparable == 0 || res.Plan.CountChoosePlans() == 0 {
		t.Errorf("no goal kept a choose-plan winner: %d extra alternatives, %d choose-plans in the plan",
			res.Stats.KeptIncomparable, res.Plan.CountChoosePlans())
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > scale {
		scale = a
	}
	return d <= 1e-9*scale
}

// TestSampledDominanceShrinksPlans: the §3 heuristic drops consistently
// worse plans whose intervals overlap, shrinking dynamic plans; the
// retained plan's start-up choices may lose optimality only in corners
// the samples missed.
func TestSampledDominanceShrinksPlans(t *testing.T) {
	q := paperishQuery(4)
	env := dynamicEnv(q)
	naive, err := Optimize(q, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Optimize(q, env, Config{SampledDominance: 16})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Stats.PrunedSampled == 0 {
		t.Error("sampled dominance never fired")
	}
	if sampled.Plan.CountNodes() >= naive.Plan.CountNodes() {
		t.Errorf("sampled plan not smaller: %d vs %d nodes",
			sampled.Plan.CountNodes(), naive.Plan.CountNodes())
	}
	// Measure the optimality risk: across random bindings, how much worse
	// is the sampled plan's choice than the naive plan's?
	params := physical.DefaultParams()
	model := physical.NewModel(params)
	rng := rand.New(rand.NewSource(55))
	worst := 1.0
	for i := 0; i < 40; i++ {
		pe := pointEnv(rng, q, params.MemoryLo, params.MemoryHi)
		naiveCost := model.Evaluate(resolveAt(t, model, naive.Plan, pe), pe).Cost.Lo
		sampledCost := model.Evaluate(resolveAt(t, model, sampled.Plan, pe), pe).Cost.Lo
		if naiveCost > 0 && sampledCost/naiveCost > worst {
			worst = sampledCost / naiveCost
		}
	}
	// The heuristic is allowed to lose, but a blow-up would indicate the
	// samples are not representative at all.
	if worst > 3 {
		t.Errorf("sampled plan up to %.1fx worse than the naive plan", worst)
	}
	t.Logf("sampled dominance: %d pruned, nodes %d -> %d, worst-case choice ratio %.2f",
		sampled.Stats.PrunedSampled, naive.Plan.CountNodes(), sampled.Plan.CountNodes(), worst)
}
