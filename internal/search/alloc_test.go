package search_test

import (
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/workload"
)

// TestOptimizeAllocations pins what a cold compile allocates: Optimize
// plus the module lowering, on the 4- and 7-relation chains of the §6
// catalog under the dynamic environment a prepared statement compiles in.
// The bounds are a quarter above the readings (29 and 37 allocations)
// since the search builds its candidates in a pooled arena and keeps only
// the compacted plan; before, the readings were 143 and 449 under bounds
// of 179 and 561.
func TestOptimizeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := workload.New(11)
	cfg := search.Config{Params: physical.DefaultParams()}
	for _, c := range []struct{ relations, bound int }{{4, 36}, {7, 46}} {
		q := window(w, 1, c.relations)
		env := runtimeopt.DynamicEnv(q, cfg, false)
		allocs := testing.AllocsPerRun(20, func() {
			res, err := search.Optimize(q, env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := plan.NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d relations: %.0f allocs (bound %d)", c.relations, allocs, c.bound)
		if int(allocs) > c.bound {
			t.Errorf("%d relations: %.0f allocs, want <= %d", c.relations, allocs, c.bound)
		}
	}
}

// TestLoweringReservesExactly: a search result carries how many operators
// its plan has and how many inputs they list, so lowering a §6 chain
// (2–10 relations, memory bound or uncertain) fills both reservations
// exactly and never regrows them. A choose-plan lists more than two
// inputs, so two per operator was both too little and too much.
func TestLoweringReservesExactly(t *testing.T) {
	w := workload.New(11)
	cfg := search.Config{Params: physical.DefaultParams()}
	for n := 2; n <= 10; n++ {
		for _, mem := range []bool{false, true} {
			q := w.Query(n)
			res, err := search.Optimize(q, runtimeopt.DynamicEnv(q, cfg, mem), cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := physical.Lower(res.Stats.Nodes(), res.Stats.Edges(), res.Plan)
			if err != nil {
				t.Fatal(err)
			}
			// The root's inputs are the program's last, so their slack is
			// what the input reservation has left.
			in := p.Inputs(int32(len(p.Nodes) - 1))
			if cap(p.Nodes) != len(p.Nodes) || cap(in) != len(in) {
				t.Errorf("%d relations (memory uncertain %v): %d operators in room for %d, %d spare inputs",
					n, mem, len(p.Nodes), cap(p.Nodes), cap(in)-len(in))
			}
		}
	}
}

// TestColdModuleBytes pins what a plan-cache miss allocates after the
// search: lowering the plan into a module and the module's first
// activation, which builds a fresh evaluator. The bounds are 3 % above
// what the two allocated before start-up ran one cost-kernel corner over
// lowered constants (24 072 and 75 650 bytes), so a new per-node table
// cannot quietly grow a cold compile.
func TestColdModuleBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := workload.New(11)
	cfg := search.Config{Params: physical.DefaultParams()}
	for _, c := range []struct {
		relations int
		bound     int64
	}{{4, 24_794}, {7, 77_919}} {
		q := window(w, 1, c.relations)
		res, err := search.Optimize(q, runtimeopt.DynamicEnv(q, cfg, false), cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := bindings.NewBindings(64)
		for _, v := range res.Plan.Variables() {
			b.BindSelectivity(v, 0.3)
		}
		r := testing.Benchmark(func(tb *testing.B) {
			for tb.Loop() {
				mod, err := plan.NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
				if err != nil {
					tb.Fatal(err)
				}
				if _, err := mod.Activate(b, plan.StartupOptions{Params: cfg.Params}); err != nil {
					tb.Fatal(err)
				}
			}
		})
		got := r.AllocedBytesPerOp()
		t.Logf("%d relations: %d B (bound %d)", c.relations, got, c.bound)
		if got > c.bound {
			t.Errorf("%d relations: NewModule + first Activate allocate %d B, want <= %d", c.relations, got, c.bound)
		}
	}
}
