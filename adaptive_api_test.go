package dynplan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dynplan/internal/workload"
)

func adaptiveAPISystem(t *testing.T) (*System, *Query) {
	t.Helper()
	sys := New()
	for i := 1; i <= 3; i++ {
		sys.MustCreateRelation(fmt.Sprintf("E%d", i), 600, 512,
			Attr{Name: "a", DomainSize: 600, BTree: true},
			Attr{Name: "jl", DomainSize: 120, BTree: true},
			Attr{Name: "jh", DomainSize: 120, BTree: true},
		)
	}
	spec := QuerySpec{}
	for i := 1; i <= 3; i++ {
		spec.Relations = append(spec.Relations, RelSpec{
			Name: fmt.Sprintf("E%d", i),
			Pred: &Pred{Attr: "a", Variable: fmt.Sprintf("v%d", i)},
		})
	}
	for i := 1; i < 3; i++ {
		spec.Joins = append(spec.Joins, JoinSpec{
			LeftRel: fmt.Sprintf("E%d", i), LeftAttr: "jh",
			RightRel: fmt.Sprintf("E%d", i+1), RightAttr: "jl",
		})
	}
	q, err := sys.BuildQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sys, q
}

// paperChain rebuilds the first n relations of the paper's §6 catalog
// (internal/workload, by seed) through the public API, with the chain
// query over them, its dynamic plan, and a database loaded with the given
// skew on the selection attribute. Join domains there are 0.2–1.25× the
// cardinality, so intermediate results shrink along the chain — the benign
// regime, in contrast to adaptiveAPISystem's fan-out of 5.
func paperChain(t *testing.T, seed int64, n int, skew float64) (*Plan, *Database) {
	t.Helper()
	sys := New()
	spec := QuerySpec{}
	for i, rel := range workload.New(seed).Catalog.Relations()[:n] {
		attrs := make([]Attr, len(rel.Attrs))
		for j, a := range rel.Attrs {
			attrs[j] = Attr{Name: a.Name, DomainSize: a.DomainSize, BTree: a.BTree}
		}
		sys.MustCreateRelation(rel.Name, rel.Cardinality, rel.RecordBytes, attrs...)
		spec.Relations = append(spec.Relations, RelSpec{
			Name: rel.Name, Pred: &Pred{Attr: workload.SelAttr, Variable: fmt.Sprintf("v%d", i+1)},
		})
		if i > 0 {
			spec.Joins = append(spec.Joins, JoinSpec{
				LeftRel: spec.Relations[i-1].Name, LeftAttr: workload.JoinHi,
				RightRel: rel.Name, RightAttr: workload.JoinLo,
			})
		}
	}
	q, err := sys.BuildQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateSkewedData(seed, skew, workload.SelAttr); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	return dyn, db
}

// startupAndAdaptive runs the dynamic plan both ways — start-up decisions
// (its module, activated under the claimed bindings) and run-time
// decisions — and fails the test unless both return the same rows.
func startupAndAdaptive(t *testing.T, db *Database, dyn *Plan, b Bindings) (startup, adaptive *ExecResult) {
	t.Helper()
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	if startup, err = db.Exec(context.Background(), mod, b, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if adaptive, err = db.Exec(context.Background(), dyn, b, ExecOptions{Adaptive: true}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(canonical(startup), canonical(adaptive)) {
		t.Fatalf("adaptive returned %d rows, the start-up path %d, or different ones",
			len(adaptive.Rows), len(startup.Rows))
	}
	return startup, adaptive
}

func TestAdaptiveAPI(t *testing.T) {
	sys, q := adaptiveAPISystem(t)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateSkewedData(2, 3, "a"); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	b := Bindings{
		Selectivities: map[string]float64{"v1": 0.02, "v2": 0.02, "v3": 0.02},
		MemoryPages:   64,
	}
	_, res := startupAndAdaptive(t, db, dyn, b)
	if res.Reopt == nil {
		t.Fatal("adaptive execution carries no Reopt account")
	}
	// One materialization, one violation/switch event pair per relation.
	if res.Reopt.TempsCreated != 3 || res.Reopt.Attempts != 3 || !res.Reopt.Switched || res.Reopt.Degraded {
		t.Errorf("account = %+v, want 3 temps over 3 switched attempts", res.Reopt)
	}
	seen := map[string]int{}
	for _, e := range res.Reopt.Events {
		if e.Stage == "violation" {
			seen[e.Rel]++
		}
	}
	if len(seen) != 3 || seen["E1"] != 1 || seen["E2"] != 1 || seen["E3"] != 1 {
		t.Errorf("observations per relation = %v, want each of E1..E3 once", seen)
	}
	if len(res.Reopt.ObservedSelectivities) != 3 {
		t.Errorf("observed %d selectivities", len(res.Reopt.ObservedSelectivities))
	}
	for v, s := range res.Reopt.ObservedSelectivities {
		// skew 3: actual ≈ 0.02^(1/3) ≈ 0.27, far above the claimed 0.02.
		if s < 0.15 || s > 0.45 {
			t.Errorf("%s: observed selectivity %g implausible", v, s)
		}
	}
	if res.PageWrites == 0 {
		t.Error("no materialization writes accounted")
	}
	if res.SimulatedSeconds(DefaultParams()) <= 0 {
		t.Error("no simulated time accounted")
	}
}

// TestAdaptiveMatchesStartupResult: under any data distribution and any
// bindings, the adaptive run computes exactly the result of the
// start-up-chosen plan — only the plan choice may differ.
func TestAdaptiveMatchesStartupResult(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, skew := range []float64{1, 3} {
		for _, n := range []int{2, 3} {
			dyn, db := paperChain(t, 21, n, skew)
			for trial := 0; trial < 4; trial++ {
				b := resilBindings(n, 0.02+rng.Float64()*0.9, 16+rng.Float64()*96)
				_, res := startupAndAdaptive(t, db, dyn, b)
				if res.Reopt == nil || res.Reopt.TempsCreated == 0 {
					t.Errorf("skew=%g n=%d trial=%d: nothing was observed", skew, n, trial)
				}
			}
		}
	}
}

// TestAdaptiveObservesAccurateEstimates: on uniform data the claims are
// right, so the observations confirm them and the run pays only the
// materialization premium.
func TestAdaptiveObservesAccurateEstimates(t *testing.T) {
	dyn, db := paperChain(t, 24, 3, 1)
	_, res := startupAndAdaptive(t, db, dyn, resilBindings(3, 0.3, 64))
	for v, s := range res.Reopt.ObservedSelectivities {
		if math.Abs(s-0.3) > 0.1 {
			t.Errorf("%s: observed selectivity %g on uniform data, claimed 0.3", v, s)
		}
	}
}

// TestAdaptiveOverheadBounded: when misestimation does not hurt the
// start-up plan (shrinking intermediates keep even wrong chains cheap),
// the adaptive run's extra materializations must stay within a small
// factor — the honest price of insurance.
func TestAdaptiveOverheadBounded(t *testing.T) {
	dyn, db := paperChain(t, 23, 4, 4)
	startup, adaptive := startupAndAdaptive(t, db, dyn, resilBindings(4, 0.02, 64))
	p := DefaultParams()
	s, a := startup.SimulatedSeconds(p), adaptive.SimulatedSeconds(p)
	if a > s*2.5 {
		t.Errorf("adaptive overhead too large in the benign case: %.4gs vs %.4gs", a, s)
	}
	t.Logf("benign case: startup %.4gs, adaptive %.4gs", s, a)
}

// TestSingleRelationAdaptive: with no joins there are no upper decisions;
// the adaptive run degenerates to materialize-and-read and must still be
// correct.
func TestSingleRelationAdaptive(t *testing.T) {
	dyn, db := paperChain(t, 27, 1, 2)
	_, res := startupAndAdaptive(t, db, dyn, resilBindings(1, 0.1, 64))
	if res.Reopt == nil || res.Reopt.TempsCreated != 1 {
		t.Errorf("account = %+v, want one materialization", res.Reopt)
	}
	card := workload.New(27).Catalog.MustRelation("R1").Cardinality
	want := int(workload.ActualSelectivity(0.1, 2) * float64(card))
	if len(res.Rows) < want/2 || len(res.Rows) > want*2 {
		t.Errorf("adaptive single-relation run returned %d rows, expected ≈%d", len(res.Rows), want)
	}
}

// TestAdaptiveComposes: run-time decisions are the eager trigger of
// re-optimization in the Remedy stage, so they compose with every other option and with module
// targets — the combinations validation used to reject. Each returns the
// plain run's rows and leaves grants, tickets and temporaries balanced.
func TestAdaptiveComposes(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{TotalPages: 1024, MaxConcurrent: 4})
	defer e.db.ClearGovernor()
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()
	ctx := context.Background()
	plain, err := e.db.Exec(ctx, e.mod, e.binds, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		target any
		o      ExecOptions
	}{
		{"module", e.mod, ExecOptions{Adaptive: true}},
		{"governed", e.dyn, ExecOptions{Adaptive: true, Governed: true}},
		{"resilient", e.mod, ExecOptions{Adaptive: true, Resilient: true}},
		{"reopt", e.dyn, ExecOptions{Adaptive: true, Reopt: &ReoptPolicy{Query: e.q}}},
		{"parallel", e.dyn, ExecOptions{Adaptive: true, Parallel: true}},
		{"everything", e.mod, ExecOptions{Adaptive: true, Governed: true, Resilient: true,
			Reopt: &ReoptPolicy{Query: e.q}, Parallel: true, Trace: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := e.db.Exec(ctx, tc.target, e.binds, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(canonical(res), canonical(plain)) {
				t.Errorf("rows differ from the plain run: got %d, want %d", len(res.Rows), len(plain.Rows))
			}
			if res.Reopt == nil || res.Reopt.TempsCreated != 3 {
				t.Errorf("account = %+v, want one materialization per relation", res.Reopt)
			}
			if (res.Admission != nil) != tc.o.Governed {
				t.Errorf("admission account present = %v, governed = %v", res.Admission != nil, tc.o.Governed)
			}
			if (res.Parallel != nil) != tc.o.Parallel {
				t.Errorf("parallel account present = %v, parallel = %v", res.Parallel != nil, tc.o.Parallel)
			}
			if res.Operators == nil || res.PlanDigest == "" || len(res.Calibration) == 0 {
				t.Error("adaptive run is not metered, digested and calibrated like every other run")
			}
			if got := e.db.OutstandingGrantPages(); got != 0 {
				t.Errorf("outstanding grant pages = %v, want 0", got)
			}
			if s := e.db.GovernorStats(); s.Admitted != s.Completed {
				t.Errorf("admitted %d != completed %d: a ticket leaked", s.Admitted, s.Completed)
			}
			snap := e.db.MetricsSnapshot()
			if snap.ReoptTempsCreated == 0 || snap.ReoptTempsCreated != snap.ReoptTempsReleased {
				t.Errorf("temp ledger unbalanced: created=%d released=%d", snap.ReoptTempsCreated, snap.ReoptTempsReleased)
			}
		})
	}
}

// TestAdaptiveWithoutAlternatives: a target with nothing to re-decide (a
// static plan, no logical query for a re-plan) is observed once, then
// finished over that temporary — same rows, remedy "degrade".
func TestAdaptiveWithoutAlternatives(t *testing.T) {
	e := newObsEnv(t)
	ctx := context.Background()
	plain, err := e.db.Exec(ctx, e.static, e.binds, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.db.Exec(ctx, e.static, e.binds, ExecOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(canonical(res), canonical(plain)) {
		t.Errorf("rows differ from the plain run: got %d, want %d", len(res.Rows), len(plain.Rows))
	}
	if res.Reopt == nil || !res.Reopt.Degraded || res.Reopt.TempsCreated != 1 {
		t.Errorf("account = %+v, want one observation then degrade", res.Reopt)
	}
}

func TestAdaptiveUnboundVariable(t *testing.T) {
	sys, q := adaptiveAPISystem(t)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateData(1); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), dyn, Bindings{MemoryPages: 64}, ExecOptions{Adaptive: true}); err == nil {
		t.Error("unbound variables accepted")
	}
}

func TestGenerateSkewedDataValidation(t *testing.T) {
	sys, _ := adaptiveAPISystem(t)
	db := sys.OpenDatabase()
	if err := db.GenerateSkewedData(1, 0, "a"); err == nil {
		t.Error("non-positive skew accepted")
	}
	if err := db.GenerateSkewedData(1, 1, "a"); err != nil {
		t.Errorf("skew 1 (uniform) rejected: %v", err)
	}
}
