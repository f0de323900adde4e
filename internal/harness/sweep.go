package harness

import (
	"fmt"
	"strings"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/workload"
)

// SweepPoint is one selectivity setting of the crossover sweep: the
// predicted execution cost of the static plan, the dynamic plan's chosen
// alternative, and the true optimum, with every host variable bound to
// the same selectivity.
type SweepPoint struct {
	Selectivity float64
	StaticCost  float64
	DynamicCost float64
	OptimalCost float64
}

// RunSweep traces the motivating trade-off of the paper's Figure 1 for
// the given query size: as the bound selectivity moves across [0, 1],
// the static plan's cost grows past the dynamic plan's, which switches
// alternatives at the crossover and tracks the optimum throughout.
func RunSweep(cfg Config, relations int, steps int) ([]*SweepPoint, error) {
	if steps < 2 {
		steps = 2
	}
	params := cfg.params()
	cfg.Search.Params = params
	w := workload.New(cfg.Seed)
	q := w.Query(relations)

	static, err := runtimeopt.OptimizeStatic(q, cfg.Search)
	if err != nil {
		return nil, err
	}
	dynamic, err := runtimeopt.OptimizeDynamic(q, cfg.Search, false)
	if err != nil {
		return nil, err
	}
	module, err := plan.NewModule(dynamic.Plan, dynamic.Stats.Nodes(), dynamic.Stats.Edges())
	if err != nil {
		return nil, err
	}
	model := physical.NewModel(params)

	var points []*SweepPoint
	for i := 0; i < steps; i++ {
		sel := float64(i) / float64(steps-1)
		b := bindings.NewBindings(params.ExpectedMemory)
		for _, v := range workload.Variables(relations) {
			b.BindSelectivity(v, sel)
		}
		env := b.Env()

		rep, err := module.Activate(b, plan.StartupOptions{Params: params})
		if err != nil {
			return nil, err
		}
		opt, err := runtimeopt.OptimizeRuntime(q, b, cfg.Search)
		if err != nil {
			return nil, err
		}
		points = append(points, &SweepPoint{
			Selectivity: sel,
			StaticCost:  model.Evaluate(static.Plan, env).Cost.Lo,
			DynamicCost: rep.ChosenCost,
			OptimalCost: opt.Cost.Lo,
		})
	}
	return points, nil
}

// SweepReport renders the sweep as an aligned table plus a coarse ASCII
// plot of the static/dynamic ratio.
func SweepReport(relations int, points []*SweepPoint) string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf(
		"Selectivity sweep (%d relations): static plan vs dynamic plan vs optimum", relations)))
	fmt.Fprintf(&b, "%11s %12s %13s %13s %7s\n",
		"selectivity", "static [s]", "dynamic [s]", "optimal [s]", "ratio")
	for _, p := range points {
		ratio := 0.0
		if p.DynamicCost > 0 {
			ratio = p.StaticCost / p.DynamicCost
		}
		bar := strings.Repeat("#", clampInt(int(ratio+0.5), 0, 40))
		fmt.Fprintf(&b, "%11.2f %12.4g %13.4g %13.4g %6.1fx %s\n",
			p.Selectivity, p.StaticCost, p.DynamicCost, p.OptimalCost, ratio, bar)
	}
	return b.String()
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
