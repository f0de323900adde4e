package dynplan

import (
	"context"
	"fmt"
	"testing"

	"dynplan/internal/obs"
)

// TestPreparedExecAllocations pins what a prepared execution allocates
// once its plan is cached: the plan-cache hit, the activation, setting
// the chosen plan up and running it. A 10-relation chain at a near-empty
// selectivity (the benchmark's startup_heavy op) sets up in one frame per
// kind rather than several allocations per operator; the observed
// 3-relation chain adds what the observatory records per query — the
// per-operator stats tree, calibration and the plan digest. Before the
// per-run frame, the two executions allocated 80 and 124 times. Skipped under
// the race detector, whose instrumentation allocates.
func TestPreparedExecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		relations int
		sel       float64
		observed  bool
		bound     float64
	}{
		{10, 0.01, false, 40}, // 16 measured
		{3, 0.02, true, 72},   // 26 measured (41 metering into a per-node map)
	} {
		t.Run(fmt.Sprintf("relations=%d/observed=%v", tc.relations, tc.observed), func(t *testing.T) {
			sys, q := resilChainSystem(t, tc.relations)
			db := resilDatabase(t, sys)
			if tc.observed {
				db.EnableObservatory()
				defer db.DisableObservatory()
			}
			p, err := db.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			b := resilBindings(tc.relations, tc.sel, 64)
			ctx := context.Background()
			// A full query log ring allocates as an empty one does.
			for range 300 {
				if _, err := p.Exec(ctx, b, ExecOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := p.Exec(ctx, b, ExecOptions{}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.bound {
				t.Errorf("prepared Exec: %.1f allocs, want <= %.0f", allocs, tc.bound)
			}
		})
	}
}

// TestPlanDigestIsFormatDigest checks that the digest an observed
// execution reports is obs.Digest of the executed plan's Format(), the
// rendering testdata/render_golden.json (internal/exec) pins: the digest
// is computed from the rendered bytes without building the string.
func TestPlanDigestIsFormatDigest(t *testing.T) {
	for _, n := range []int{1, 3, 6} {
		sys, q := resilChainSystem(t, n)
		db := resilDatabase(t, sys)
		db.EnableObservatory()
		dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
		if err != nil {
			t.Fatal(err)
		}
		mod, err := dyn.Module()
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range []float64{0.01, 0.3, 0.9} {
			for _, mem := range []float64{16, 112} {
				b := resilBindings(n, sel, mem)
				act, err := mod.Activate(b)
				if err != nil {
					t.Fatal(err)
				}
				res, err := db.Exec(context.Background(), act, b, ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if want := obs.Digest(act.report.Chosen.Format()); res.PlanDigest != want {
					t.Errorf("relations %d sel %g mem %g: PlanDigest %s, want %s", n, sel, mem, res.PlanDigest, want)
				}
			}
		}
	}
}
