// Benchmark run records: the machine-readable counterpart of the Figure
// benchmarks' custom metrics.
//
// When BENCH_DIR is set, the Figure 4/6/7 benchmarks write one
// BENCH_<name>.json per experiment into that directory. The values are
// computed deterministically over the full seeded draw sets — outside the
// timed loops, independent of -benchtime — so two runs of the same tree
// produce byte-identical records. The copies committed at the repo root
// are the perf-trajectory baselines; CI regenerates the records on every
// push and fails via cmd/benchdiff when a simulated-cost total regresses
// more than the tolerance. Refresh the baselines after an intentional
// cost change with:
//
//	BENCH_DIR=. go test -bench=Figure -benchtime=1x -run='^$' .
package dynplan

import (
	"fmt"
	"os"
	"testing"

	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/workload"
)

// benchRecordDir returns the directory run records are written into, or
// "" when record writing is disabled (the default for plain test runs).
func benchRecordDir() string { return os.Getenv("BENCH_DIR") }

func writeBenchRecord(b *testing.B, rec *obs.RunRecord) {
	b.Helper()
	if err := rec.WriteFile(benchRecordDir()); err != nil {
		b.Fatalf("writing bench record: %v", err)
	}
}

// recordFigure4 writes the Figure 4 record: average predicted execution
// time of the static and dynamic plan per query, over every draw of the
// seeded binding sets. The gated total is the sum of the dynamic
// averages — the headline quantity the paper's experiment optimizes for.
func recordFigure4(b *testing.B, e *benchEnv) {
	if benchRecordDir() == "" {
		return
	}
	model := physical.NewModel(e.params)
	rec := &obs.RunRecord{
		Name:    "figure4-exec-times",
		Query:   "paper queries (2-10 relations): predicted execution time, static vs dynamic, averaged over 64 seeded binding draws",
		Metrics: map[string]float64{},
	}
	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		draws := benchBindings(e, n, int64(n))
		var sumStatic, sumDynamic float64
		for _, d := range draws {
			env := d.Env()
			sumStatic += model.Evaluate(e.static[n].Plan, env).Cost.Lo
			rep, err := e.modules[n].Activate(d, plan.StartupOptions{Params: e.params})
			if err != nil {
				b.Fatal(err)
			}
			sumDynamic += rep.ChosenCost
		}
		avgStatic := sumStatic / float64(len(draws))
		avgDynamic := sumDynamic / float64(len(draws))
		rec.Metrics[fmt.Sprintf("static-exec-s/relations=%d", n)] = avgStatic
		rec.Metrics[fmt.Sprintf("dynamic-exec-s/relations=%d", n)] = avgDynamic
		rec.SimCostTotal += avgDynamic
	}
	writeBenchRecord(b, rec)
}

// recordFigure6 writes the Figure 6 record: plan sizes (static nodes,
// dynamic nodes, encoded alternatives, choose-plan operators) per query,
// plus the optimizer span of the largest query's dynamic optimization
// (wall-clock stripped).
// The record is size-only — SimCostTotal stays zero, so the comparison
// reports drift without gating.
func recordFigure6(b *testing.B, e *benchEnv) {
	if benchRecordDir() == "" {
		return
	}
	rec := &obs.RunRecord{
		Name:    "figure6-plan-sizes",
		Query:   "paper queries (2-10 relations): static vs dynamic plan sizes and encoded alternatives",
		Metrics: map[string]float64{},
	}
	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		dyn := e.dynamic[n]
		rec.Metrics[fmt.Sprintf("static-nodes/relations=%d", n)] = float64(e.static[n].Plan.CountNodes())
		rec.Metrics[fmt.Sprintf("dynamic-nodes/relations=%d", n)] = float64(dyn.Plan.CountNodes())
		rec.Metrics[fmt.Sprintf("plans-encoded/relations=%d", n)] = dyn.Plan.Alternatives()
		rec.Metrics[fmt.Sprintf("choose-plans/relations=%d", n)] = float64(dyn.Plan.CountChoosePlans())
	}
	// The span's wall_ns is its one wall-clock field, and the committed
	// record must be byte-identical across runs.
	span := *e.dynamic[10].Span
	span.WallNanos = 0
	rec.Optimizer = &span
	writeBenchRecord(b, rec)
}

// recordFigure7 writes the Figure 7 record: start-up expense of the
// dynamic plans (nodes evaluated, decisions, module I/O, simulated
// start-up seconds) averaged over every draw. The gated total is the sum
// of the per-query average start-up seconds.
func recordFigure7(b *testing.B, e *benchEnv) {
	if benchRecordDir() == "" {
		return
	}
	rec := &obs.RunRecord{
		Name:    "figure7-startup",
		Query:   "paper queries (2-10 relations): dynamic-plan start-up expense averaged over 64 seeded binding draws",
		Metrics: map[string]float64{},
	}
	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		draws := benchBindings(e, n, int64(100+n))
		var sumNodes, sumDecisions, sumStartup float64
		for _, d := range draws {
			rep, err := e.modules[n].Activate(d, plan.StartupOptions{Params: e.params})
			if err != nil {
				b.Fatal(err)
			}
			sumNodes += float64(rep.NodesEvaluated)
			sumDecisions += float64(rep.Decisions)
			sumStartup += rep.TotalStartupSeconds()
		}
		cnt := float64(len(draws))
		rec.Metrics[fmt.Sprintf("nodes-evaluated/relations=%d", n)] = sumNodes / cnt
		rec.Metrics[fmt.Sprintf("decisions/relations=%d", n)] = sumDecisions / cnt
		rec.Metrics[fmt.Sprintf("module-io-s/relations=%d", n)] = e.modules[n].ReadTime(e.params)
		rec.SimCostTotal += sumStartup / cnt
	}
	writeBenchRecord(b, rec)
}
