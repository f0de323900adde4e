package dynplan

import (
	"context"
	"fmt"
	"testing"
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
	res, err := db.Exec(context.Background(), dyn, b, ExecOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive.Materialized != 3 {
		t.Errorf("materialized %d subplans, want 3", res.Adaptive.Materialized)
	}
	if len(res.Adaptive.ObservedSelectivities) != 3 {
		t.Errorf("observed %d selectivities", len(res.Adaptive.ObservedSelectivities))
	}
	for v, s := range res.Adaptive.ObservedSelectivities {
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
	// Result must match the start-up path.
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	act, err := mod.Activate(b)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := db.Exec(context.Background(), act, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Rows) != len(res.Rows) {
		t.Errorf("adaptive returned %d rows, start-up path %d", len(res.Rows), len(plain.Rows))
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
