package dynplan

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// staleBytesCase is one stale-catalog execution and the bytes one Exec of
// it allocated when the executor's buffers still grew from minBatch
// whatever start-up predicted.
type staleBytesCase struct {
	factor int     // C2 stores factor × its declared rows; a negative factor declares -factor × the stored rows
	sel    float64 // every variable's selectivity
	before uint64  // bytes per Exec, recorded before start-up sized the buffers
}

// staleBytesCases are the stale-catalog chains of reoptStaleDB, where
// start-up's predictions are off by the staleness factor: C2 at 4x, 10x
// and 20x its declared rows, and one catalog that declares 10x the stored
// rows, each at three selectivities.
var staleBytesCases = []staleBytesCase{
	{4, 0.2, 149_312}, {4, 0.5, 851_577}, {4, 1.0, 6_491_735},
	{10, 0.2, 250_304}, {10, 0.5, 1_964_403}, {10, 1.0, 15_687_654},
	{20, 0.2, 509_416}, {20, 0.5, 3_902_181}, {20, 1.0, 34_181_880},
	{-10, 0.2, 45_744}, {-10, 0.5, 294_720}, {-10, 1.0, 1_665_940},
}

// TestStaleCatalogBytes checks that sizing the executor's buffers from
// start-up's predictions costs little where the predictions are wrong. A
// 3-relation chain runs through an activated module, so the activation's
// cardinalities size the run, over a catalog that is 4x, 10x or 20x stale
// (and one that overstates C2 10x). No case may allocate more than 1.25x
// its bytes per Exec from before the buffers were sized, and all of them
// together no more than before. Skipped under the race detector, whose
// instrumentation allocates.
func TestStaleCatalogBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var sum, sumBefore uint64
	for _, c := range staleBytesCases {
		name := fmt.Sprintf("C2-stores-x%d/sel=%g", c.factor, c.sel)
		if c.factor < 0 {
			name = fmt.Sprintf("C2-declared-x%d/sel=%g", -c.factor, c.sel)
		}
		t.Run(name, func(t *testing.T) {
			got := staleExecBytes(t, c.factor, c.sel)
			sum += got
			sumBefore += c.before
			t.Logf("%d B per Exec (before: %d, %.2fx)", got, c.before, float64(got)/float64(c.before))
			if float64(got) > 1.25*float64(c.before) {
				t.Errorf("%d B per Exec, want <= 1.25 × %d", got, c.before)
			}
		})
	}
	t.Logf("sum %d B (before: %d, %.2fx)", sum, sumBefore, float64(sum)/float64(sumBefore))
	if sum > sumBefore {
		t.Errorf("the cases allocate %d B per Exec together, more than the %d B before", sum, sumBefore)
	}
}

// staleExecBytes builds the stale chain and returns the bytes one Exec of
// its activated module allocates, averaged over several runs.
func staleExecBytes(t *testing.T, factor int, sel float64) uint64 {
	var (
		sys *System
		q   *Query
		db  *Database
	)
	if factor > 0 {
		sys, q, db = reoptStaleDB(t, 3, "C2", factor)
	} else {
		// Load the data as declared, then let a second database whose C2
		// holds -factor × as many rows refresh the shared catalog.
		var stale *Database
		sys, q, stale = reoptStaleDB(t, 3, "C2", -factor)
		db = resilDatabase(t, sys)
		if err := stale.Analyze(); err != nil {
			t.Fatal(err)
		}
	}
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	b := resilBindings(3, sel, 64)
	ctx := context.Background()
	if _, err := db.Exec(ctx, mod, b, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := db.Exec(ctx, mod, b, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}
