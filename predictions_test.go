package dynplan

import (
	"context"
	"math"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/exec"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
)

// TestPredictionsMatchModel pins the predicted cardinality band on every
// operator of an observed run, whichever source produced it: the
// activation's report for a module target, one sweep of the resolved plan
// otherwise — a static plan, a re-optimized run whose bindings the
// observed selectivities corrected. Each band must equal, bit for bit,
// the interval model's evaluation of that operator's subplan at the run's
// bindings.
func TestPredictionsMatchModel(t *testing.T) {
	sys, q := resilChainSystem(t, 3)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	static, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	fresh := resilDatabase(t, sys)
	// The stale chain: C2 holds four times the rows its catalog claims.
	staleSys, staleQ, stale := reoptStaleDB(t, 3, "C2", 4)
	staleDyn, err := staleSys.OptimizeDynamic(staleQ, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	staleMod, err := staleDyn.Module()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		db     *Database
		target any
		b      Bindings
		opts   ExecOptions
		check  func(*testing.T, *ExecResult)
	}{
		{name: "module", db: fresh, target: mod, b: resilBindings(3, 0.3, 64)},
		{name: "static", db: fresh, target: static, b: resilBindings(3, 0.3, 64)},
		{name: "reopt-switched", db: stale, target: staleMod, b: resilBindings(3, 0.5, 64),
			opts: ExecOptions{Reopt: &ReoptPolicy{}},
			check: func(t *testing.T, res *ExecResult) {
				if res.Reopt == nil || !res.Reopt.Switched || len(res.Reopt.ObservedSelectivities) == 0 {
					t.Fatalf("no switch under corrected bindings: %+v", res.Reopt)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db
			db.EnableObservatory()
			defer db.DisableObservatory()
			// The executor builds a plan's inputs before the operator, so
			// the last operator built is the root of the run that returned.
			var root *physical.Node
			db.wrap = func(it exec.Iterator, n *physical.Node) exec.Iterator {
				root = n
				return it
			}
			defer func() { db.wrap = nil }()
			res, err := db.Exec(context.Background(), tc.target, tc.b, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, res)
			}
			b, err := tc.b.internal()
			if err != nil {
				t.Fatal(err)
			}
			if res.Reopt != nil {
				for v, s := range res.Reopt.ObservedSelectivities {
					b.Sel[v] = s
				}
			}
			model := physical.NewModel(db.sys.cfg.Params)
			matchPredictions(t, model, b.Env(), root, res.Operators)
		})
	}
}

// matchPredictions walks the stats tree alongside the plan it describes.
func matchPredictions(t *testing.T, model *physical.Model, env *bindings.Env, n *physical.Node, s *obs.PlanStats) {
	t.Helper()
	if s == nil || s.Label != n.Label() || len(s.Children) != len(n.Children) {
		t.Fatalf("stats tree does not describe %s", n.Label())
	}
	want := model.Evaluate(n, env).Card
	bits := math.Float64bits
	if p := s.Predicted; p == nil || bits(p.CardLo) != bits(want.Lo) || bits(p.CardHi) != bits(want.Hi) {
		t.Errorf("%s: predicted %+v, model %v", n.Label(), p, want)
	}
	for i, c := range n.Children {
		matchPredictions(t, model, env, c, s.Children[i])
	}
}
