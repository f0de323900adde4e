// Benchmarks regenerating every table and figure of the paper's §6, plus
// ablation benchmarks for the design choices called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark times the operation the corresponding figure measures
// (optimization for Figure 5, start-up for Figure 7, …) and attaches the
// figure's headline series as custom metrics. cmd/figures prints the same
// series as aligned tables with the full experimental protocol (N = 100
// binding draws per point).
package dynplan

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/harness"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/workload"
)

// benchEnv lazily builds the shared experimental state: the workload,
// optimized plans, and access modules for the five paper queries.
type benchEnv struct {
	w       *workload.Workload
	cfg     search.Config
	params  physical.Params
	static  map[int]*search.Result
	dynamic map[int]*search.Result
	modules map[int]*plan.AccessModule
}

var (
	benchOnce sync.Once
	bench     *benchEnv
)

func benchSetup(tb testing.TB) *benchEnv {
	tb.Helper()
	benchOnce.Do(func() {
		params := physical.DefaultParams()
		e := &benchEnv{
			w:       workload.New(11),
			cfg:     search.Config{Params: params},
			params:  params,
			static:  make(map[int]*search.Result),
			dynamic: make(map[int]*search.Result),
			modules: make(map[int]*plan.AccessModule),
		}
		for _, spec := range workload.PaperQueries() {
			q := e.w.Query(spec.Relations)
			st, err := runtimeopt.OptimizeStatic(q, e.cfg)
			if err != nil {
				panic(err)
			}
			dy, err := runtimeopt.OptimizeDynamic(q, e.cfg, true)
			if err != nil {
				panic(err)
			}
			mod, err := plan.NewModule(dy.Plan)
			if err != nil {
				panic(err)
			}
			e.static[spec.Relations] = st
			e.dynamic[spec.Relations] = dy
			e.modules[spec.Relations] = mod
		}
		bench = e
	})
	return bench
}

func benchBindings(e *benchEnv, n int, seed int64) []*bindings.Bindings {
	gen := bindings.NewGenerator(seed, workload.Variables(n), true)
	gen.MemLo, gen.MemHi, gen.MemDefault = e.params.MemoryLo, e.params.MemoryHi, e.params.ExpectedMemory
	return gen.Draw(64)
}

// BenchmarkTable1OperatorInventory exercises every physical algorithm and
// enforcer of Table 1 by optimizing all five paper queries dynamically.
// The metrics count the distinct operator kinds the search engine costed
// (9 = the full Table 1 inventory) and the kinds retained in the produced
// plans (B-tree-Scan is always dominated by Filter-B-tree-Scan under the
// default catalog, so 8 survive; see the Table1 report of cmd/figures).
func BenchmarkTable1OperatorInventory(b *testing.B) {
	e := benchSetup(b)
	considered := 0
	retained := 0
	for b.Loop() {
		histC := make(map[physical.Op]int)
		histR := make(map[physical.Op]int)
		for _, spec := range workload.PaperQueries() {
			q := e.w.Query(spec.Relations)
			res, err := runtimeopt.OptimizeDynamic(q, e.cfg, true)
			if err != nil {
				b.Fatal(err)
			}
			for op, c := range res.Plan.Operators() {
				histR[op] += c
			}
			for op, c := range res.Stats.CandidatesByOp {
				histC[op] += c
			}
			histC[physical.ChoosePlan] += res.Stats.ChoosePlans
		}
		considered, retained = len(histC), len(histR)
	}
	b.ReportMetric(float64(considered), "kinds-considered")
	b.ReportMetric(float64(retained), "kinds-retained")
}

// BenchmarkFigure3Scenarios measures one full invocation cycle of each
// scenario for query 5: static (activate-equivalent evaluation), run-time
// optimization, and dynamic (start-up + evaluation).
func BenchmarkFigure3Scenarios(b *testing.B) {
	e := benchSetup(b)
	q := e.w.Query(10)
	draws := benchBindings(e, 10, 1)
	b.Run("static-invocation", func(b *testing.B) {
		model := physical.NewModel(e.params)
		i := 0
		for b.Loop() {
			env := draws[i%len(draws)].Env()
			_ = model.Evaluate(e.static[10].Plan, env)
			i++
		}
	})
	b.Run("runtime-optimization-invocation", func(b *testing.B) {
		i := 0
		for b.Loop() {
			if _, err := runtimeopt.OptimizeRuntime(q, draws[i%len(draws)], e.cfg); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.Run("dynamic-invocation", func(b *testing.B) {
		i := 0
		for b.Loop() {
			if _, err := e.modules[10].Activate(draws[i%len(draws)], plan.StartupOptions{Params: e.params}); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkFigure4ExecutionTimes evaluates static and dynamic plans under
// random bindings — the per-invocation work behind Figure 4 — and reports
// the average predicted run-times and their ratio for each query.
func BenchmarkFigure4ExecutionTimes(b *testing.B) {
	e := benchSetup(b)
	model := physical.NewModel(e.params)
	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		b.Run(fmt.Sprintf("relations=%d", n), func(b *testing.B) {
			draws := benchBindings(e, n, int64(n))
			var sumStatic, sumDynamic float64
			count := 0
			i := 0
			for b.Loop() {
				d := draws[i%len(draws)]
				env := d.Env()
				sumStatic += model.Evaluate(e.static[n].Plan, env).Cost.Lo
				rep, err := e.modules[n].Activate(d, plan.StartupOptions{Params: e.params})
				if err != nil {
					b.Fatal(err)
				}
				sumDynamic += rep.ChosenCost
				count++
				i++
			}
			if count > 0 && sumDynamic > 0 {
				b.ReportMetric(sumStatic/float64(count), "static-exec-s")
				b.ReportMetric(sumDynamic/float64(count), "dynamic-exec-s")
				b.ReportMetric(sumStatic/sumDynamic, "static/dynamic")
			}
		})
	}
}

// BenchmarkFigure5OptimizationTime measures static versus dynamic
// optimization — exactly Figure 5's quantity, truly measured as in the
// paper.
func BenchmarkFigure5OptimizationTime(b *testing.B) {
	e := benchSetup(b)
	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		q := e.w.Query(n)
		b.Run(fmt.Sprintf("static/relations=%d", n), func(b *testing.B) {
			for b.Loop() {
				if _, err := runtimeopt.OptimizeStatic(q, e.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("dynamic/relations=%d", n), func(b *testing.B) {
			for b.Loop() {
				if _, err := runtimeopt.OptimizeDynamic(q, e.cfg, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure6PlanSizes rebuilds the dynamic plans and reports the
// plan-size series of Figure 6 (static nodes, dynamic nodes, encoded
// alternatives).
func BenchmarkFigure6PlanSizes(b *testing.B) {
	e := benchSetup(b)
	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		q := e.w.Query(n)
		b.Run(fmt.Sprintf("relations=%d", n), func(b *testing.B) {
			var dyn *search.Result
			for b.Loop() {
				var err error
				dyn, err = runtimeopt.OptimizeDynamic(q, e.cfg, true)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(e.static[n].Plan.CountNodes()), "static-nodes")
			b.ReportMetric(float64(dyn.Plan.CountNodes()), "dynamic-nodes")
			b.ReportMetric(dyn.Plan.Alternatives(), "plans-encoded")
		})
	}
}

// BenchmarkFigure7StartupCPU measures dynamic-plan start-up (the
// choose-plan decision procedures), Figure 7's quantity.
func BenchmarkFigure7StartupCPU(b *testing.B) {
	e := benchSetup(b)
	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		b.Run(fmt.Sprintf("relations=%d", n), func(b *testing.B) {
			draws := benchBindings(e, n, int64(100+n))
			var nodes, decisions int
			i := 0
			for b.Loop() {
				rep, err := e.modules[n].Activate(draws[i%len(draws)], plan.StartupOptions{Params: e.params})
				if err != nil {
					b.Fatal(err)
				}
				nodes, decisions = rep.NodesEvaluated, rep.Decisions
				i++
			}
			b.ReportMetric(float64(nodes), "nodes-evaluated")
			b.ReportMetric(float64(decisions), "decisions")
			b.ReportMetric(e.modules[n].ReadTime(e.params), "module-io-s")
		})
	}
}

// BenchmarkFigure8RuntimeOptVsDynamic performs, per iteration, one
// run-time re-optimization and one dynamic-plan activation for the same
// binding — the two per-invocation run-time components Figure 8 compares.
func BenchmarkFigure8RuntimeOptVsDynamic(b *testing.B) {
	e := benchSetup(b)
	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		q := e.w.Query(n)
		draws := benchBindings(e, n, int64(200+n))
		b.Run(fmt.Sprintf("runtime-opt/relations=%d", n), func(b *testing.B) {
			i := 0
			for b.Loop() {
				if _, err := runtimeopt.OptimizeRuntime(q, draws[i%len(draws)], e.cfg); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
		b.Run(fmt.Sprintf("dynamic-startup/relations=%d", n), func(b *testing.B) {
			i := 0
			for b.Loop() {
				if _, err := e.modules[n].Activate(draws[i%len(draws)], plan.StartupOptions{Params: e.params}); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}

// BenchmarkBreakEven runs the full experiment pipeline for each query at
// a reduced draw count and reports the break-even points of §6.
func BenchmarkBreakEven(b *testing.B) {
	e := benchSetup(b)
	cfg := harness.Config{Seed: 11, N: 16, Search: e.cfg, OptRepeats: 1}
	for _, spec := range workload.PaperQueries() {
		spec := spec
		b.Run(fmt.Sprintf("relations=%d", spec.Relations), func(b *testing.B) {
			var pt *harness.Point
			for b.Loop() {
				var err error
				pt, err = harness.RunQuery(e.w, spec, true, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.BreakEvenStatic), "breakeven-vs-static")
			b.ReportMetric(float64(pt.BreakEvenRuntime), "breakeven-vs-runtime")
		})
	}
}

// BenchmarkRobustnessGuarantee verifies ∀i gᵢ = dᵢ on every iteration:
// the activation's chosen-plan cost must match full re-optimization.
func BenchmarkRobustnessGuarantee(b *testing.B) {
	e := benchSetup(b)
	q := e.w.Query(4)
	draws := benchBindings(e, 4, 300)
	eps := e.params.ChooseOverhead*float64(e.dynamic[4].Plan.CountChoosePlans()) + 1e-9
	i := 0
	violations := 0
	for b.Loop() {
		d := draws[i%len(draws)]
		rep, err := e.modules[4].Activate(d, plan.StartupOptions{Params: e.params})
		if err != nil {
			b.Fatal(err)
		}
		rt, err := runtimeopt.OptimizeRuntime(q, d, e.cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.ChosenCost > rt.Cost.Lo+eps {
			violations++
		}
		i++
	}
	if violations > 0 {
		b.Fatalf("%d guarantee violations", violations)
	}
	b.ReportMetric(0, "violations")
}

// BenchmarkAblationEqualCostRetention quantifies the cost of the paper's
// "most naive" policy of keeping equal-cost plans (§3) against pruning
// them.
func BenchmarkAblationEqualCostRetention(b *testing.B) {
	e := benchSetup(b)
	q := e.w.Query(6)
	for _, prune := range []bool{false, true} {
		name := "keep-equals"
		if prune {
			name = "prune-equals"
		}
		b.Run(name, func(b *testing.B) {
			cfg := e.cfg
			cfg.PruneEqualCost = prune
			env := runtimeopt.DynamicEnv(q, cfg, true)
			var nodes int
			for b.Loop() {
				res, err := search.Optimize(q, env, cfg)
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Plan.CountNodes()
			}
			b.ReportMetric(float64(nodes), "plan-nodes")
		})
	}
}

// BenchmarkAblationSearchBnB quantifies branch-and-bound pruning during
// optimization (the device whose erosion under interval costs Figure 5
// discusses).
func BenchmarkAblationSearchBnB(b *testing.B) {
	e := benchSetup(b)
	q := e.w.Query(10)
	for _, disable := range []bool{false, true} {
		name := "with-bnb"
		if disable {
			name = "without-bnb"
		}
		b.Run(name, func(b *testing.B) {
			cfg := e.cfg
			cfg.DisableBnB = disable
			env := runtimeopt.StaticEnv(q, cfg)
			var pruned int
			for b.Loop() {
				res, err := search.Optimize(q, env, cfg)
				if err != nil {
					b.Fatal(err)
				}
				pruned = res.Stats.PrunedByBound
			}
			b.ReportMetric(float64(pruned), "pruned-candidates")
		})
	}
}

// BenchmarkAblationStartupBnB quantifies the start-up branch-and-bound
// extension (§4 proposes it; the paper's prototype omitted it).
func BenchmarkAblationStartupBnB(b *testing.B) {
	e := benchSetup(b)
	draws := benchBindings(e, 10, 400)
	for _, bb := range []bool{false, true} {
		name := "full-evaluation"
		if bb {
			name = "bnb-evaluation"
		}
		b.Run(name, func(b *testing.B) {
			var nodes int
			i := 0
			for b.Loop() {
				rep, err := e.modules[10].Activate(draws[i%len(draws)],
					plan.StartupOptions{Params: e.params, BranchAndBound: bb})
				if err != nil {
					b.Fatal(err)
				}
				nodes = rep.NodesEvaluated
				i++
			}
			b.ReportMetric(float64(nodes), "nodes-evaluated")
		})
	}
}

// BenchmarkAblationPlanShrinking measures activation cost before and
// after the §4 shrinking heuristic under a skewed binding distribution.
func BenchmarkAblationPlanShrinking(b *testing.B) {
	e := benchSetup(b)
	dyn := e.dynamic[6]
	fresh, err := plan.NewModule(dyn.Plan)
	if err != nil {
		b.Fatal(err)
	}
	narrow := func(i int) *bindings.Bindings {
		bd := bindings.NewBindings(64)
		for _, v := range workload.Variables(6) {
			bd.BindSelectivity(v, 0.001+0.002*float64(i%10))
		}
		return bd
	}
	stats := plan.NewUsageStats()
	for i := 0; i < 50; i++ {
		if _, err := fresh.Activate(narrow(i), plan.StartupOptions{Params: e.params, Usage: stats}); err != nil {
			b.Fatal(err)
		}
	}
	shrunk, err := fresh.Shrink(stats)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full-module", func(b *testing.B) {
		i := 0
		for b.Loop() {
			if _, err := fresh.Activate(narrow(i), plan.StartupOptions{Params: e.params}); err != nil {
				b.Fatal(err)
			}
			i++
		}
		b.ReportMetric(float64(fresh.NodeCount()), "module-nodes")
	})
	b.Run("shrunk-module", func(b *testing.B) {
		i := 0
		for b.Loop() {
			if _, err := shrunk.Activate(narrow(i), plan.StartupOptions{Params: e.params}); err != nil {
				b.Fatal(err)
			}
			i++
		}
		b.ReportMetric(float64(shrunk.NodeCount()), "module-nodes")
	})
}

// BenchmarkAblationSampledDominance quantifies the §3 heuristic: sampled
// cost-function comparison drops consistently-worse overlapping plans,
// shrinking dynamic plans at some optimality risk.
func BenchmarkAblationSampledDominance(b *testing.B) {
	e := benchSetup(b)
	q := e.w.Query(6)
	for _, k := range []int{0, 8, 32} {
		b.Run(fmt.Sprintf("samples=%d", k), func(b *testing.B) {
			cfg := e.cfg
			cfg.SampledDominance = k
			env := runtimeopt.DynamicEnv(q, cfg, true)
			var nodes, pruned int
			for b.Loop() {
				res, err := search.Optimize(q, env, cfg)
				if err != nil {
					b.Fatal(err)
				}
				nodes, pruned = res.Plan.CountNodes(), res.Stats.PrunedSampled
			}
			b.ReportMetric(float64(nodes), "plan-nodes")
			b.ReportMetric(float64(pruned), "sampled-pruned")
		})
	}
}

// BenchmarkAdaptiveRuntimeDecisions measures the §7 extension end to end
// under selectivity estimation error: start-up decisions versus run-time
// decisions with observed cardinalities, both executed on the simulated
// engine. The metric reports the simulated execution seconds.
func BenchmarkAdaptiveRuntimeDecisions(b *testing.B) {
	sys := New()
	for i := 1; i <= 4; i++ {
		sys.MustCreateRelation(fmt.Sprintf("E%d", i), 800, 512,
			Attr{Name: "a", DomainSize: 800, BTree: true},
			Attr{Name: "jl", DomainSize: 160, BTree: true},
			Attr{Name: "jh", DomainSize: 160, BTree: true},
		)
	}
	spec := QuerySpec{}
	for i := 1; i <= 4; i++ {
		spec.Relations = append(spec.Relations, RelSpec{
			Name: fmt.Sprintf("E%d", i),
			Pred: &Pred{Attr: "a", Variable: fmt.Sprintf("v%d", i)},
		})
	}
	for i := 1; i < 4; i++ {
		spec.Joins = append(spec.Joins, JoinSpec{
			LeftRel: fmt.Sprintf("E%d", i), LeftAttr: "jh",
			RightRel: fmt.Sprintf("E%d", i+1), RightAttr: "jl",
		})
	}
	q, err := sys.BuildQuery(spec)
	if err != nil {
		b.Fatal(err)
	}
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		b.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		b.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateSkewedData(1, 4, "a"); err != nil {
		b.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		b.Fatal(err)
	}
	binds := Bindings{Selectivities: map[string]float64{}, MemoryPages: 64}
	for i := 1; i <= 4; i++ {
		binds.Selectivities[fmt.Sprintf("v%d", i)] = 0.02
	}
	params := DefaultParams()

	b.Run("startup-decisions", func(b *testing.B) {
		var sim float64
		for b.Loop() {
			act, err := mod.Activate(binds)
			if err != nil {
				b.Fatal(err)
			}
			res, err := db.Exec(context.Background(), act, binds, ExecOptions{})
			if err != nil {
				b.Fatal(err)
			}
			sim = res.SimulatedSeconds(params)
		}
		b.ReportMetric(sim, "exec-sim-s")
	})
	b.Run("runtime-decisions", func(b *testing.B) {
		var sim float64
		for b.Loop() {
			res, err := db.Exec(context.Background(), dyn, binds, ExecOptions{Adaptive: true})
			if err != nil {
				b.Fatal(err)
			}
			sim = res.SimulatedSeconds(params)
		}
		b.ReportMetric(sim, "exec-sim-s")
	})
}

// BenchmarkFeasibilityValidation measures catalog-validated activation
// and demonstrates the robustness metric: the fraction of index drops a
// dynamic plan survives that kill the static plan.
func BenchmarkFeasibilityValidation(b *testing.B) {
	e := benchSetup(b)
	mod := e.modules[4]
	draws := benchBindings(e, 4, 500)
	none := func(rel, attr string) bool { return false }
	b.Run("all-indexes-dropped", func(b *testing.B) {
		survived := 0
		i := 0
		for b.Loop() {
			if _, err := mod.Activate(draws[i%len(draws)],
				plan.StartupOptions{Params: e.params, IndexExists: none}); err == nil {
				survived++
			} else {
				b.Fatal(err)
			}
			i++
		}
		b.ReportMetric(1, "dynamic-survives")
	})
}

// BenchmarkAblationCascadeBounds measures Volcano's full top-down
// branch-and-bound (parent limits cascading into sub-goals) for static
// optimization of the largest query — identical plans, less effort.
func BenchmarkAblationCascadeBounds(b *testing.B) {
	e := benchSetup(b)
	q := e.w.Query(10)
	for _, cascade := range []bool{false, true} {
		name := "local-bounds"
		if cascade {
			name = "cascaded-bounds"
		}
		b.Run(name, func(b *testing.B) {
			cfg := e.cfg
			cfg.CascadeBounds = cascade
			env := runtimeopt.StaticEnv(q, cfg)
			var pruned int
			for b.Loop() {
				res, err := search.Optimize(q, env, cfg)
				if err != nil {
					b.Fatal(err)
				}
				pruned = res.Stats.PrunedByBound
			}
			b.ReportMetric(float64(pruned), "pruned-candidates")
		})
	}
}
