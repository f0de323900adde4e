package dynplan

import (
	"context"
	"strings"
	"testing"

	"dynplan/internal/obs"
)

// BenchmarkReoptStaleCatalog measures what mid-query re-optimization
// costs when the catalog lies: the same static plan over a 3-relation
// chain whose middle relation really holds 4x its declared cardinality,
// executed with guards off and with guards armed.
func BenchmarkReoptStaleCatalog(b *testing.B) {
	db, p, q, bind := reoptStaleRig(b)
	ctx := context.Background()

	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(ctx, p, bind, ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(ctx, p, bind, ExecOptions{Reopt: &ReoptPolicy{Query: q}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// reoptStaleRig is the stale-catalog database, static plan, query, and
// bindings the benchmark and the record share.
func reoptStaleRig(tb testing.TB) (*Database, *Plan, *Query, Bindings) {
	sys, q, db := reoptStaleDB(tb, 3, "C2", 4)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		tb.Fatal(err)
	}
	return db, p, q, resilBindings(3, 0.5, 64)
}

// reoptStaleCatalogRecord is the reopt-stale-catalog record, computed
// from one observed pair of executions of the benchmark's plan: the
// unguarded run's calibration q-error stays at the staleness factor, the
// guarded run corrects its estimates mid-flight and pays for it in spool
// writes and re-planning, so drift in either the remedy's benefit or its
// price changes the record. Every metric derives from deterministic page
// and tuple counters.
func reoptStaleCatalogRecord(tb testing.TB) *obs.RunRecord {
	db, p, q, bind := reoptStaleRig(tb)
	ctx := context.Background()
	db.EnableObservatory()
	defer db.DisableObservatory()
	off, err := db.Exec(ctx, p, bind, ExecOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	on, err := db.Exec(ctx, p, bind, ExecOptions{Reopt: &ReoptPolicy{Query: q}})
	if err != nil {
		tb.Fatal(err)
	}
	if on.Reopt == nil {
		tb.Fatal("4x-stale catalog tripped no guard; the record would be vacuous")
	}
	if strings.Join(canonical(on), "\n") != strings.Join(canonical(off), "\n") {
		tb.Fatal("re-optimized rows differ from the unguarded execution")
	}
	params := DefaultParams()
	return &obs.RunRecord{
		Query: "3-relation chain join, C2 4x stale: static plan unguarded vs with mid-query re-optimization armed",
		Metrics: map[string]float64{
			"off-sim-cost-s":    off.SimulatedSeconds(params),
			"on-sim-cost-s":     on.SimulatedSeconds(params),
			"off-q-error-max":   maxCalibrationQError(off),
			"on-q-error-max":    maxCalibrationQError(on),
			"reopt-attempts":    float64(on.Reopt.Attempts),
			"temps-created":     float64(on.Reopt.TempsCreated),
			"spool-page-writes": float64(on.PageWrites),
			"rows":              float64(len(on.Rows)),
		},
		Reopt: stripWallClock(on.Reopt.Events),
		// The headline total is the guarded run's simulated cost: it
		// prices the whole remedy — violated attempt, spooling, re-planned
		// finish.
		SimCostTotal: on.SimulatedSeconds(params),
	}
}

// stripWallClock copies the re-opt events with their planning_ns zeroed:
// it is the one wall-clock field in the trace, and the committed record
// must be byte-identical across runs.
func stripWallClock(events []obs.ReoptEvent) []obs.ReoptEvent {
	out := make([]obs.ReoptEvent, len(events))
	for i, e := range events {
		e.PlanningNanos = 0
		out[i] = e
	}
	return out
}

// maxCalibrationQError reduces an execution's calibration verdicts to
// the headline the stale-catalog record tracks: the worst cardinality
// miss. The plan-level cost verdict is excluded — its q-error is floored
// against a sub-second prediction and would drown the estimate signal.
func maxCalibrationQError(r *ExecResult) float64 {
	maxQ := 0.0
	for _, v := range r.Calibration {
		if v.Kind == "cardinality" && v.QError > maxQ {
			maxQ = v.QError
		}
	}
	return maxQ
}
