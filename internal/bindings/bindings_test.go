package bindings

import (
	"testing"

	"dynplan/internal/cost"
)

func TestEnvSelectivityDefaults(t *testing.T) {
	env := NewEnv(cost.PointRange(64))
	if got := env.Selectivity("unknown"); got != cost.NewRange(0, 1) {
		t.Errorf("unknown variable selectivity = %v, want [0,1]", got)
	}
	env.Bind("v", cost.PointRange(0.3))
	if got := env.Selectivity("v"); got != cost.PointRange(0.3) {
		t.Errorf("bound selectivity = %v", got)
	}
	var nilEnv *Env
	if got := nilEnv.Selectivity("v"); got != cost.NewRange(0, 1) {
		t.Errorf("nil env selectivity = %v", got)
	}
}

func TestEnvIsPoint(t *testing.T) {
	env := NewEnv(cost.PointRange(64)).Bind("v", cost.PointRange(0.5))
	if !env.IsPoint() {
		t.Error("all-point env must be point")
	}
	env.Bind("w", cost.NewRange(0, 1))
	if env.IsPoint() {
		t.Error("env with interval variable must not be point")
	}
	env2 := NewEnv(cost.NewRange(16, 112))
	if env2.IsPoint() {
		t.Error("env with interval memory must not be point")
	}
}

func TestEnvVarsSorted(t *testing.T) {
	env := NewEnv(cost.PointRange(64)).Bind("z", cost.PointRange(1)).Bind("a", cost.PointRange(1))
	vars := env.Vars()
	if len(vars) != 2 || vars[0] != "a" || vars[1] != "z" {
		t.Errorf("Vars = %v", vars)
	}
}

func TestBindingsSelectivity(t *testing.T) {
	b := NewBindings(64).BindSelectivity("v", 0.25)
	got, err := b.Selectivity("v")
	if err != nil || got != 0.25 {
		t.Errorf("Selectivity = %v, %v", got, err)
	}
	if _, err := b.Selectivity("unbound"); err == nil {
		t.Error("unbound variable must error")
	}
}

func TestBindSelectivityPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for selectivity > 1")
		}
	}()
	NewBindings(64).BindSelectivity("v", 1.5)
}

func TestBindingsEnvAllPoints(t *testing.T) {
	b := NewBindings(32).BindSelectivity("v", 0.7)
	env := b.Env()
	if !env.IsPoint() {
		t.Error("bindings env must be all points")
	}
	if env.Memory != cost.PointRange(32) {
		t.Errorf("memory = %v", env.Memory)
	}
	if env.Selectivity("v") != cost.PointRange(0.7) {
		t.Errorf("selectivity = %v", env.Selectivity("v"))
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(7, []string{"a", "b"}, true)
	g2 := NewGenerator(7, []string{"b", "a"}, true) // order-insensitive
	for i := 0; i < 20; i++ {
		b1, b2 := g1.Next(), g2.Next()
		if b1.Memory != b2.Memory {
			t.Fatalf("draw %d: memory %g vs %g", i, b1.Memory, b2.Memory)
		}
		for _, v := range []string{"a", "b"} {
			if b1.Sel[v] != b2.Sel[v] {
				t.Fatalf("draw %d: %s %g vs %g", i, v, b1.Sel[v], b2.Sel[v])
			}
		}
	}
}

func TestGeneratorRanges(t *testing.T) {
	g := NewGenerator(3, []string{"v"}, true)
	for i := 0; i < 200; i++ {
		b := g.Next()
		if b.Memory < 16 || b.Memory > 112 {
			t.Fatalf("memory %g outside [16,112]", b.Memory)
		}
		if s := b.Sel["v"]; s < 0 || s > 1 {
			t.Fatalf("selectivity %g outside [0,1]", s)
		}
	}
}

func TestGeneratorFixedMemory(t *testing.T) {
	g := NewGenerator(3, []string{"v"}, false)
	for i := 0; i < 20; i++ {
		if b := g.Next(); b.Memory != 64 {
			t.Fatalf("memory %g, want the default 64", b.Memory)
		}
	}
}

func TestGeneratorDraw(t *testing.T) {
	g := NewGenerator(5, []string{"v"}, false)
	batch := g.Draw(10)
	if len(batch) != 10 {
		t.Fatalf("Draw returned %d binding sets", len(batch))
	}
	seen := make(map[float64]bool)
	for _, b := range batch {
		seen[b.Sel["v"]] = true
	}
	if len(seen) < 5 {
		t.Error("draws look non-random")
	}
}
