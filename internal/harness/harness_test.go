package harness

import (
	"strings"
	"testing"

	"dynplan/internal/physical"
	"dynplan/internal/search"
	"dynplan/internal/workload"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.N = 8
	cfg.OptRepeats = 1
	return cfg
}

func TestRunQueryPoint(t *testing.T) {
	cfg := smallConfig()
	w := workload.New(cfg.Seed)
	pt, err := RunQuery(w, workload.QuerySpec{Name: "query 2", Relations: 2}, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pt.UncertainVars != 2 {
		t.Errorf("uncertain vars = %d", pt.UncertainVars)
	}
	if pt.AvgStaticExec <= 0 || pt.AvgDynamicExec <= 0 {
		t.Error("non-positive execution times")
	}
	// The headline result: dynamic plans beat static on average.
	if pt.AvgDynamicExec >= pt.AvgStaticExec {
		t.Errorf("dynamic (%g) not better than static (%g)", pt.AvgDynamicExec, pt.AvgStaticExec)
	}
	// The guarantee ∀i gᵢ = dᵢ (ε-aware).
	if pt.GuaranteeViolations != 0 {
		t.Errorf("%d guarantee violations (max delta %g)", pt.GuaranteeViolations, pt.MaxGuaranteeDelta)
	}
	// Dynamic plans are not smaller than static ones.
	if pt.DynamicNodes < pt.StaticNodes {
		t.Error("dynamic plan smaller than static plan")
	}
	if pt.ChoosePlans == 0 {
		t.Error("dynamic plan has no choose-plans")
	}
	// Averages of d and g agree (they are the same plans).
	if diff := pt.AvgRuntimeExec - pt.AvgDynamicExec; diff > 1e-3 || diff < -1e-3 {
		t.Errorf("d̄ (%g) and ḡ (%g) disagree", pt.AvgRuntimeExec, pt.AvgDynamicExec)
	}
}

func TestMemoryUncertaintyAddsVariable(t *testing.T) {
	cfg := smallConfig()
	w := workload.New(cfg.Seed)
	pt, err := RunQuery(w, workload.QuerySpec{Name: "query 1", Relations: 1}, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pt.UncertainVars != 2 {
		t.Errorf("uncertain vars = %d, want 2 (selectivity + memory)", pt.UncertainVars)
	}
	if !pt.MemUncertain {
		t.Error("point does not record memory uncertainty")
	}
}

func TestBreakEvenFormula(t *testing.T) {
	// Dynamic: 10s compile, 2s per invocation. Static: 1s compile, 5s per
	// invocation. Break-even: 10 + 2N < 1 + 5N  =>  N > 3  =>  N = 4.
	if got := breakEven(10, 2, 1, 5); got != 4 {
		t.Errorf("breakEven = %d, want 4", got)
	}
	// Never: dynamic per-invocation worse and compile worse.
	if got := breakEven(10, 5, 1, 2); got != -1 {
		t.Errorf("breakEven = %d, want -1 (never)", got)
	}
	// Immediately: cheaper on both axes.
	if got := breakEven(1, 2, 10, 5); got != 1 {
		t.Errorf("breakEven = %d, want 1", got)
	}
	// Same per-invocation cost but cheaper compile: wins from the start.
	if got := breakEven(1, 5, 10, 5); got != 1 {
		t.Errorf("breakEven = %d, want 1", got)
	}
	// Exact tie at N: strict inequality requires the next N.
	// 10 + 2N < 10 + 2N never holds.
	if got := breakEven(10, 2, 10, 2); got != -1 {
		t.Errorf("breakEven tie = %d, want -1", got)
	}
}

func TestSimOptSecondsMonotoneInEffort(t *testing.T) {
	small := search.Stats{Candidates: 10, PrunedByBound: 5, Comparisons: 3}
	big := search.Stats{Candidates: 100, PrunedByBound: 5, Comparisons: 30}
	if SimOptSeconds(big) <= SimOptSeconds(small) {
		t.Error("more candidates must cost more simulated time")
	}
	// Pruned candidates are cheaper than fully costed ones.
	pruned := search.Stats{Candidates: 10, PrunedByBound: 9}
	full := search.Stats{Candidates: 10}
	if SimOptSeconds(pruned) >= SimOptSeconds(full) {
		t.Error("pruning must reduce simulated optimization time")
	}
}

func TestReportsRender(t *testing.T) {
	cfg := smallConfig()
	w := workload.New(cfg.Seed)
	var points []*Point
	for _, spec := range []workload.QuerySpec{{Name: "query 1", Relations: 1}, {Name: "query 2", Relations: 2}} {
		pt, err := RunQuery(w, spec, false, cfg)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, pt)
	}
	SortPoints(points)
	params := cfg.Search.Params
	for name, out := range map[string]string{
		"fig4":      Figure4(points),
		"fig5":      Figure5(points),
		"fig6":      Figure6(points),
		"fig7":      Figure7(points),
		"fig8":      Figure8(points, params),
		"breakeven": BreakEven(points),
		"effort":    SearchEffort(points),
		"fig3":      Figure3(points[0], params, 10),
	} {
		if !strings.Contains(out, "query 1") {
			t.Errorf("%s: report lacks data rows:\n%s", name, out)
		}
		if len(strings.Split(out, "\n")) < 4 {
			t.Errorf("%s: report too short", name)
		}
	}
}

func TestTable1CoversInventory(t *testing.T) {
	cfg := smallConfig()
	w := workload.New(cfg.Seed)
	out, err := Table1(w, cfg.Search)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []physical.Op{
		physical.FileScan, physical.BtreeScan, physical.FilterBtreeScan,
		physical.Filter, physical.HashJoin, physical.MergeJoin,
		physical.IndexJoin, physical.Sort, physical.ChoosePlan,
	} {
		if !strings.Contains(out, op.String()) {
			t.Errorf("Table 1 output lacks %s:\n%s", op, out)
		}
	}
}

func TestSortPointsOrder(t *testing.T) {
	points := []*Point{
		{Spec: workload.QuerySpec{Relations: 4}, MemUncertain: true},
		{Spec: workload.QuerySpec{Relations: 2}, MemUncertain: false},
		{Spec: workload.QuerySpec{Relations: 1}, MemUncertain: true},
		{Spec: workload.QuerySpec{Relations: 6}, MemUncertain: false},
	}
	SortPoints(points)
	if points[0].Spec.Relations != 2 || points[1].Spec.Relations != 6 {
		t.Error("selectivity-only points must sort first, by size")
	}
	if !points[2].MemUncertain || points[2].Spec.Relations != 1 {
		t.Error("memory-uncertain points must sort last, by size")
	}
}

func TestPerInvocationDecomposition(t *testing.T) {
	params := physical.DefaultParams()
	pt := &Point{
		StaticNodes: 10, DynamicNodes: 100,
		AvgStaticExec: 5, AvgDynamicExec: 1,
		AvgStartupCPUSim: 0.04, AvgRuntimeExec: 1, AvgRuntimeOptSim: 3,
	}
	static := pt.StaticPerInvocation(params)
	wantStatic := params.ActivationTime + params.ModuleReadTime(10) + 5
	if static != wantStatic {
		t.Errorf("static per-invocation = %g, want %g", static, wantStatic)
	}
	dyn := pt.DynamicPerInvocation(params)
	wantDyn := params.ActivationTime + params.ModuleReadTime(100) + 0.04 + 1
	if dyn != wantDyn {
		t.Errorf("dynamic per-invocation = %g, want %g", dyn, wantDyn)
	}
	if rt := pt.RuntimePerInvocation(); rt != 4 {
		t.Errorf("runtime per-invocation = %g, want 4", rt)
	}
}

func TestRunSweep(t *testing.T) {
	cfg := smallConfig()
	points, err := RunSweep(cfg, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("%d sweep points", len(points))
	}
	for i, p := range points {
		// The dynamic choice must track the optimum at every setting
		// (up to choose-plan overhead).
		if p.DynamicCost > p.OptimalCost+0.01 {
			t.Errorf("point %d (sel %g): dynamic %g, optimal %g", i, p.Selectivity, p.DynamicCost, p.OptimalCost)
		}
		// The static plan can never beat the optimum.
		if p.StaticCost < p.OptimalCost-1e-9 {
			t.Errorf("point %d: static %g below optimal %g", i, p.StaticCost, p.OptimalCost)
		}
	}
	// Somewhere along the sweep the static plan must be substantially
	// worse — the motivating crossover.
	worst := 0.0
	for _, p := range points {
		if r := p.StaticCost / p.DynamicCost; r > worst {
			worst = r
		}
	}
	if worst < 2 {
		t.Errorf("sweep never shows a substantial static penalty (worst ratio %g)", worst)
	}
	out := SweepReport(1, points)
	if !strings.Contains(out, "selectivity") {
		t.Errorf("sweep report malformed:\n%s", out)
	}
}
