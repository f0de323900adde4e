package dynplan

import (
	"context"
	"fmt"
	"testing"

	"dynplan/internal/harness"
	"dynplan/internal/obs"
)

// BenchmarkPreparedActivation measures the steady-state prepared-query
// path: plan-cache hit, activation under the bindings, execution. The
// plan-cache record prices the compile-once economics the cache exists
// for in simulated time.
func BenchmarkPreparedActivation(b *testing.B) {
	sys, q := resilChainSystem(b, 3)
	db := resilDatabase(b, sys)
	p, err := db.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}
	bind := resilBindings(3, 0.3, 64)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Exec(ctx, bind, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.PlanCacheHit {
			b.Fatal("steady-state prepared execution missed the plan cache")
		}
	}
}

// BenchmarkColdPrepare measures a cold statement on §6 chains of 2, 4
// and 7 relations: parse, a plan-cache miss (key, search, lowering) and
// the fresh module's first execution. Each iteration installs an empty
// cache, which the allocation figures include.
func BenchmarkColdPrepare(b *testing.B) {
	sys, db := paperDatabase(b)
	ctx := context.Background()
	for _, n := range []int{2, 4, 7} {
		text, bind := chainText(1, n, false, false), chainBindings(1, n, 0.05)
		b.Run(fmt.Sprintf("relations=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				db.planCache = newPlanCache(64)
				q, err := sys.Parse(text)
				if err != nil {
					b.Fatal(err)
				}
				p, err := db.Prepare(q)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Exec(ctx, bind, ExecOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// planCacheRecord is the plan-cache record: simulated cost of the cold
// path (dynamic optimization + activation) against the cached path
// (activation only) for the benchmark's 3-relation chain, computed from
// the optimizer's search statistics and the activation report. The
// builder fails unless a cached activation is at least 10x cheaper than
// the cold compile it displaces. The headline total is the cached
// activation cost — the per-call price every prepared execution pays.
func planCacheRecord(tb testing.TB) *obs.RunRecord {
	sys, q := resilChainSystem(tb, 3)
	bind := resilBindings(3, 0.3, 64)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		tb.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		tb.Fatal(err)
	}
	act, err := mod.Activate(bind)
	if err != nil {
		tb.Fatal(err)
	}
	optS := harness.SimOptSeconds(dyn.Stats())
	actS := act.report.TotalStartupSeconds()
	coldS := optS + actS
	speedup := coldS / actS
	if speedup < 10 {
		tb.Fatalf("cached activation only %.1fx cheaper than cold compile (opt %gs + act %gs vs act %gs); the plan cache no longer pays for itself",
			speedup, optS, actS, actS)
	}
	return &obs.RunRecord{
		Query: "3-relation chain: simulated cost of cold compile (dynamic optimization + activation) vs cached activation",
		Metrics: map[string]float64{
			"cold-compile-s":      coldS,
			"cold-optimize-s":     optS,
			"cached-activation-s": actS,
			"speedup":             speedup,
		},
		SimCostTotal: actS,
	}
}
