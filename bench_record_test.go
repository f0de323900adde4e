// The benchmark ledger: the seven committed BENCH_<name>.json run records,
// the machine-readable counterpart of the paper's §6 figures (4, 6 and 7)
// and of the layers built on them (stage dispatch, span tracing, the plan
// cache, mid-query re-optimization).
//
// Every record is computed deterministically — simulated costs, node
// counts, decisions, page and tuple counters, no wall-clock figure — so
// TestBenchLedger rebuilds all seven on every `go test` and requires each
// to match its committed copy byte for byte: a changed, missing or extra
// record fails. The builders also enforce the acceptance floors their
// layers promise (the plan-cache advantage). After an intentional behaviour change, refresh the records
// with:
//
//	go test -run TestBenchLedger -update .
package dynplan

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/workload"
)

var updateLedger = flag.Bool("update", false, "rewrite the committed BENCH_*.json records from this build")

// ledger names every committed record and the builder that recomputes it.
var ledger = []struct {
	name  string
	build func(testing.TB) *obs.RunRecord
}{
	{"figure4-exec-times", figure4Record},
	{"figure6-plan-sizes", figure6Record},
	{"figure7-startup", figure7Record},
	{"exec-pipeline-overhead", execPipelineRecord},
	{"trace-overhead", traceOverheadRecord},
	{"plan-cache", planCacheRecord},
	{"reopt-stale-catalog", reoptStaleCatalogRecord},
}

// TestBenchLedger rebuilds every record and byte-compares it with the
// committed file, in both directions: a record whose bytes changed, a
// ledger entry with no committed file, and a committed BENCH_*.json no
// builder produces all fail. With -update it rewrites the committed
// files instead (and deletes the ones no builder produces).
func TestBenchLedger(t *testing.T) {
	dir := t.TempDir()
	if *updateLedger {
		dir = "."
	}
	produced := make(map[string]bool)
	for _, l := range ledger {
		file := "BENCH_" + l.name + ".json"
		produced[file] = true
		t.Run(l.name, func(t *testing.T) {
			rec := l.build(t)
			rec.Name = l.name
			if err := rec.WriteFile(dir); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				t.Fatal(err)
			}
			committed, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("%s is not committed (%v); run `go test -run TestBenchLedger -update .` to add it", file, err)
			}
			if !bytes.Equal(got, committed) {
				t.Errorf("%s differs from this build's record: %s", file, firstDiff(committed, got))
			}
		})
	}
	committed, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range committed {
		switch {
		case produced[file]:
		case *updateLedger:
			if err := os.Remove(file); err != nil {
				t.Error(err)
			}
		default:
			t.Errorf("%s is committed but no ledger builder produces it", file)
		}
	}
}

// firstDiff locates the first line at which two records diverge.
func firstDiff(committed, rebuilt []byte) string {
	a := bytes.Split(committed, []byte("\n"))
	b := bytes.Split(rebuilt, []byte("\n"))
	for i := 0; i < len(a) || i < len(b); i++ {
		var la, lb []byte
		if i < len(a) {
			la = a[i]
		}
		if i < len(b) {
			lb = b[i]
		}
		if !bytes.Equal(la, lb) {
			return fmt.Sprintf("line %d: committed %q, rebuilt %q", i+1, la, lb)
		}
	}
	return "no line differs"
}

// figure4Record is the Figure 4 record: average predicted execution time
// of the static and dynamic plan per query, over every draw of the seeded
// binding sets. The headline total is the sum of the dynamic averages —
// the quantity the paper's experiment optimizes for.
func figure4Record(tb testing.TB) *obs.RunRecord {
	e := benchSetup(tb)
	model := physical.NewModel(e.params)
	rec := &obs.RunRecord{
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
				tb.Fatal(err)
			}
			sumDynamic += rep.ChosenCost
		}
		avgStatic := sumStatic / float64(len(draws))
		avgDynamic := sumDynamic / float64(len(draws))
		rec.Metrics[fmt.Sprintf("static-exec-s/relations=%d", n)] = avgStatic
		rec.Metrics[fmt.Sprintf("dynamic-exec-s/relations=%d", n)] = avgDynamic
		rec.SimCostTotal += avgDynamic
	}
	return rec
}

// figure6Record is the Figure 6 record: plan sizes (static nodes, dynamic
// nodes, encoded alternatives, choose-plan operators) per query, plus the
// optimizer span of the largest query's dynamic optimization (wall-clock
// stripped). The record is size-only: SimCostTotal stays zero.
func figure6Record(tb testing.TB) *obs.RunRecord {
	e := benchSetup(tb)
	rec := &obs.RunRecord{
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
	span := *e.dynamic[10].Span()
	span.WallNanos = 0
	rec.Optimizer = &span
	return rec
}

// figure7Record is the Figure 7 record: start-up expense of the dynamic
// plans (nodes evaluated, decisions, module I/O, simulated start-up
// seconds) averaged over every draw. The headline total is the sum of the
// per-query average start-up seconds.
func figure7Record(tb testing.TB) *obs.RunRecord {
	e := benchSetup(tb)
	rec := &obs.RunRecord{
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
				tb.Fatal(err)
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
	return rec
}
