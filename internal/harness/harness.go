// Package harness runs the experiments of §6 of the paper and produces
// the series behind every figure: execution times of static versus
// dynamic plans (Figure 4), optimization times (Figure 5), plan sizes
// (Figure 6), start-up CPU times (Figure 7), run-time optimization versus
// dynamic plans (Figure 8), the Figure 3 scenario decomposition, and the
// break-even points of §6.
//
// Methodology follows the paper:
//   - execution times are those predicted by the cost model under the
//     drawn bindings (§6 footnote 4), averaged over N = 100 random
//     binding sets (selectivities uniform over [0, 1]; memory uniform
//     over [16, 112] pages when uncertain);
//   - optimization and start-up CPU times are both truly measured on the
//     host and, for cross-scale comparisons (Figure 8, break-even),
//     expressed in simulated 1994-hardware seconds derived from
//     deterministic effort counts, so that compile-time effort and
//     predicted run-times live on one scale, as they did on the paper's
//     DECstation.
package harness

import (
	"fmt"
	"time"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives the synthetic catalog, data, and binding draws.
	Seed int64
	// N is the number of random binding sets per data point (§6: 100).
	N int
	// Search configures the optimizer (cost-model params included).
	Search search.Config
	// OptRepeats re-runs each optimization to stabilize measured times.
	OptRepeats int
}

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig() Config {
	return Config{Seed: 11, N: 100, Search: search.Config{Params: physical.DefaultParams()}, OptRepeats: 3}
}

func (c Config) params() physical.Params {
	if c.Search.Params == (physical.Params{}) {
		return physical.DefaultParams()
	}
	return c.Search.Params
}

// OptCandidateTime converts optimizer effort counts into simulated
// seconds on the paper's hardware. The constant is calibrated so that the
// simulated optimization time of query 5 lands near the paper's measured
// 27.1 s (static) and 80.6 s (dynamic): a fully costed candidate charges
// one unit, a bound-pruned candidate half a unit, and every interval
// comparison a small extra.
const (
	optCandidateSeconds  = 48e-3
	optPrunedSeconds     = optCandidateSeconds / 2
	optComparisonSeconds = 1e-3
)

// SimOptSeconds maps search statistics to simulated optimization seconds.
func SimOptSeconds(s search.Stats) float64 {
	full := s.Candidates - s.PrunedByBound
	return float64(full)*optCandidateSeconds +
		float64(s.PrunedByBound)*optPrunedSeconds +
		float64(s.Comparisons)*optComparisonSeconds
}

// Point is one data point of the experiment grid: one query, with or
// without memory uncertainty.
type Point struct {
	Spec         workload.QuerySpec
	MemUncertain bool
	// UncertainVars is the x-axis of every figure: the number of unbound
	// selection predicates, plus one if memory is uncertain.
	UncertainVars int

	// Optimization (Figure 5): measured on the host and simulated.
	StaticOptMeasured  time.Duration
	DynamicOptMeasured time.Duration
	StaticOptSim       float64
	DynamicOptSim      float64
	StaticStats        search.Stats
	DynamicStats       search.Stats

	// Plan sizes (Figure 6) and structure.
	StaticNodes  int
	DynamicNodes int
	ChoosePlans  int
	// DynamicAlternatives is the number of complete static plans the
	// dynamic plan encodes.
	DynamicAlternatives float64
	LogicalAlternatives float64

	// Execution (Figure 4): average predicted run-times over N bindings.
	AvgStaticExec  float64 // c̄
	AvgDynamicExec float64 // ḡ
	AvgRuntimeExec float64 // d̄ (should equal ḡ)

	// Start-up (Figure 7): dynamic-plan start-up expense.
	AvgStartupCPUSim      float64       // choose-plan decisions, simulated
	AvgStartupCPUMeasured time.Duration // same, measured on the host
	StartupIOSim          float64       // module read time
	StaticStartupIOSim    float64       // static module read time

	// Run-time optimization (Figure 8): per-invocation re-optimization.
	AvgRuntimeOptMeasured time.Duration
	AvgRuntimeOptSim      float64

	// GuaranteeViolations counts bindings where the start-up-chosen
	// plan's cost exceeded the run-time-optimized plan's cost by more
	// than the choose-plan decision-overhead budget (the paper's
	// guarantee ∀i gᵢ = dᵢ, which holds up to the overhead the paper
	// itself folds into dynamic-plan cost intervals: a candidate whose
	// margin against the winner is below the accumulated overhead may be
	// pruned, making the guarantee ε-optimal with
	// ε = ChooseOverhead × choose-plan count).
	GuaranteeViolations int
	// MaxGuaranteeDelta is the largest observed gᵢ − dᵢ.
	MaxGuaranteeDelta float64

	// Break-even points (§6).
	BreakEvenStatic  int // vs static plans (paper: 1 for all queries)
	BreakEvenRuntime int // vs run-time optimization (paper: 2–4)
}

// ActivationSeconds returns the paper's b (static) or the I/O part of f
// (dynamic): fixed activation overhead plus module transfer.
func (p *Point) activation(params physical.Params, nodes int) float64 {
	return params.ActivationTime + params.ModuleReadTime(nodes)
}

// StaticPerInvocation returns b + c̄.
func (p *Point) StaticPerInvocation(params physical.Params) float64 {
	return p.activation(params, p.StaticNodes) + p.AvgStaticExec
}

// DynamicPerInvocation returns f + ḡ.
func (p *Point) DynamicPerInvocation(params physical.Params) float64 {
	return p.activation(params, p.DynamicNodes) + p.AvgStartupCPUSim + p.AvgDynamicExec
}

// RuntimePerInvocation returns a + d̄ (run-time optimization skips
// activation by passing the plan straight to the execution engine, §2).
func (p *Point) RuntimePerInvocation() float64 {
	return p.AvgRuntimeOptSim + p.AvgRuntimeExec
}

// RunQuery produces one data point.
func RunQuery(w *workload.Workload, spec workload.QuerySpec, memUncertain bool, cfg Config) (*Point, error) {
	if cfg.N <= 0 {
		cfg.N = 100
	}
	if cfg.OptRepeats <= 0 {
		cfg.OptRepeats = 1
	}
	params := cfg.params()
	cfg.Search.Params = params
	q := w.Query(spec.Relations)

	pt := &Point{Spec: spec, MemUncertain: memUncertain, UncertainVars: spec.Relations}
	if memUncertain {
		pt.UncertainVars++
	}

	// Optimize, repeating to stabilize the measured times (minimum of the
	// repeats, the standard way to strip scheduler noise).
	var static, dynamic *search.Result
	for i := 0; i < cfg.OptRepeats; i++ {
		st, err := runtimeopt.OptimizeStatic(q, cfg.Search)
		if err != nil {
			return nil, fmt.Errorf("harness: static optimization: %w", err)
		}
		dy, err := runtimeopt.OptimizeDynamic(q, cfg.Search, memUncertain)
		if err != nil {
			return nil, fmt.Errorf("harness: dynamic optimization: %w", err)
		}
		if static == nil || st.Stats.Elapsed < pt.StaticOptMeasured {
			pt.StaticOptMeasured = st.Stats.Elapsed
		}
		if dynamic == nil || dy.Stats.Elapsed < pt.DynamicOptMeasured {
			pt.DynamicOptMeasured = dy.Stats.Elapsed
		}
		static, dynamic = st, dy
	}
	pt.StaticStats, pt.DynamicStats = static.Stats, dynamic.Stats
	pt.StaticOptSim = SimOptSeconds(static.Stats)
	pt.DynamicOptSim = SimOptSeconds(dynamic.Stats)
	pt.StaticNodes = static.Plan.CountNodes()
	pt.DynamicNodes = dynamic.Plan.CountNodes()
	pt.ChoosePlans = dynamic.Plan.CountChoosePlans()
	pt.DynamicAlternatives = dynamic.Plan.Alternatives()
	pt.LogicalAlternatives = q.LogicalAlternatives(q.AllRels())

	module, err := plan.NewModule(dynamic.Plan, dynamic.Stats.Nodes(), dynamic.Stats.Edges())
	if err != nil {
		return nil, fmt.Errorf("harness: building access module: %w", err)
	}
	pt.StartupIOSim = module.ReadTime(params)
	staticModule, err := plan.NewModule(static.Plan, static.Stats.Nodes(), static.Stats.Edges())
	if err != nil {
		return nil, fmt.Errorf("harness: building static access module: %w", err)
	}
	pt.StaticStartupIOSim = staticModule.ReadTime(params)

	model := physical.NewModel(params)
	gen := bindings.NewGenerator(cfg.Seed+int64(spec.Relations), workload.Variables(spec.Relations), memUncertain)
	gen.MemLo, gen.MemHi, gen.MemDefault = params.MemoryLo, params.MemoryHi, params.ExpectedMemory

	var sumStatic, sumDynamic, sumRuntime, sumStartupCPU float64
	var sumStartupMeasured, sumRuntimeOptMeasured time.Duration
	var sumRuntimeOptSim float64
	for i := 0; i < cfg.N; i++ {
		b := gen.Next()
		env := b.Env()

		// cᵢ: the static plan under the actual bindings.
		sumStatic += model.Evaluate(static.Plan, env).Cost.Lo

		// gᵢ and the start-up expense of the dynamic plan.
		rep, err := module.Activate(b, plan.StartupOptions{Params: params})
		if err != nil {
			return nil, fmt.Errorf("harness: activation: %w", err)
		}
		sumDynamic += rep.ChosenCost
		sumStartupCPU += rep.SimCPUSeconds
		sumStartupMeasured += rep.MeasuredCPU

		// dᵢ: complete re-optimization with the actual bindings.
		rt, err := runtimeopt.OptimizeRuntime(q, b, cfg.Search)
		if err != nil {
			return nil, fmt.Errorf("harness: run-time optimization: %w", err)
		}
		sumRuntime += rt.Cost.Lo
		sumRuntimeOptMeasured += rt.Stats.Elapsed
		sumRuntimeOptSim += SimOptSeconds(rt.Stats)

		delta := rep.ChosenCost - rt.Cost.Lo
		if delta > pt.MaxGuaranteeDelta {
			pt.MaxGuaranteeDelta = delta
		}
		epsBudget := params.ChooseOverhead*float64(pt.ChoosePlans) + 1e-9
		if delta > epsBudget || delta < -1e-9*(1+rt.Cost.Lo) {
			pt.GuaranteeViolations++
		}
	}
	n := float64(cfg.N)
	pt.AvgStaticExec = sumStatic / n
	pt.AvgDynamicExec = sumDynamic / n
	pt.AvgRuntimeExec = sumRuntime / n
	pt.AvgStartupCPUSim = sumStartupCPU / n
	pt.AvgStartupCPUMeasured = sumStartupMeasured / time.Duration(cfg.N)
	pt.AvgRuntimeOptMeasured = sumRuntimeOptMeasured / time.Duration(cfg.N)
	pt.AvgRuntimeOptSim = sumRuntimeOptSim / n

	pt.BreakEvenStatic = breakEven(
		pt.DynamicOptSim, pt.DynamicPerInvocation(params),
		pt.StaticOptSim, pt.StaticPerInvocation(params))
	pt.BreakEvenRuntime = breakEven(
		pt.DynamicOptSim, pt.DynamicPerInvocation(params),
		0, pt.RuntimePerInvocation())
	return pt, nil
}

// breakEven returns the smallest N with fixedA + N·perA < fixedB + N·perB,
// i.e. the invocation count from which approach A (dynamic plans) is
// cheaper overall than approach B. It returns -1 if A never catches up.
func breakEven(fixedA, perA, fixedB, perB float64) int {
	if perA >= perB {
		if fixedA < fixedB {
			return 1
		}
		return -1
	}
	n := (fixedA - fixedB) / (perB - perA)
	if n < 0 {
		return 1
	}
	ni := int(n)
	for float64(ni)*(perB-perA) <= fixedA-fixedB {
		ni++
	}
	if ni < 1 {
		ni = 1
	}
	return ni
}

// Grid runs the full experiment: the five paper queries, each with
// selectivity-only uncertainty and with added memory uncertainty.
func Grid(cfg Config) ([]*Point, error) {
	w := workload.New(cfg.Seed)
	var points []*Point
	for _, memUncertain := range []bool{false, true} {
		for _, spec := range workload.PaperQueries() {
			pt, err := RunQuery(w, spec, memUncertain, cfg)
			if err != nil {
				return nil, err
			}
			points = append(points, pt)
		}
	}
	return points, nil
}
