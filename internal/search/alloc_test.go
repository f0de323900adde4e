package search_test

import (
	"testing"

	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/workload"
)

// TestOptimizeAllocations pins what a cold compile allocates: Optimize
// plus the module lowering, on the 4- and 7-relation chains of the §6
// catalog under the dynamic environment a prepared statement compiles in.
// The bounds are a third of what the search allocated when every compile
// also counted the query's join trees, assembled the optimizer span and
// costed candidates through a node-keyed map (1 363 and 5 906).
func TestOptimizeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := workload.New(11)
	cfg := search.Config{Params: physical.DefaultParams()}
	for _, c := range []struct{ relations, bound int }{{4, 454}, {7, 1968}} {
		q := window(w, 1, c.relations)
		env := runtimeopt.DynamicEnv(q, cfg, false)
		allocs := testing.AllocsPerRun(20, func() {
			res, err := search.Optimize(q, env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := plan.NewModule(res.Plan); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d relations: %.0f allocs (bound %d)", c.relations, allocs, c.bound)
		if int(allocs) > c.bound {
			t.Errorf("%d relations: %.0f allocs, want <= %d", c.relations, allocs, c.bound)
		}
	}
}
