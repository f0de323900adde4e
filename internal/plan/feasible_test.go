package plan

import (
	"errors"
	"strings"
	"testing"

	"dynplan/internal/physical"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
)

// indexSet simulates a mutable catalog of indexes for validation.
type indexSet map[string]bool

func (s indexSet) exists(rel, attr string) bool { return s[rel+"."+attr] }

func allIndexes(root *physical.Node) indexSet {
	s := make(indexSet)
	seen := make(map[*physical.Node]bool)
	var walk func(n *physical.Node)
	walk = func(n *physical.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		switch n.Op {
		case physical.BtreeScan, physical.FilterBtreeScan, physical.IndexJoin:
			s[n.Rel+"."+n.Attr] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return s
}

func TestValidationNoopWhenAllIndexesExist(t *testing.T) {
	res := dynamicPlan(t, 3)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	idx := allIndexes(res.Plan)
	b := bindingsFor(3, 0.4, 64)
	plain, err := mod.Activate(b, StartupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	validated, err := mod.Activate(b, StartupOptions{IndexExists: idx.exists})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ChosenCost != validated.ChosenCost {
		t.Errorf("validation changed the choice: %g vs %g", validated.ChosenCost, plain.ChosenCost)
	}
}

// TestDynamicPlanSurvivesIndexDrop: dropping the index behind the chosen
// access path makes the choose-plan fall back to a feasible alternative.
func TestDynamicPlanSurvivesIndexDrop(t *testing.T) {
	res := dynamicPlan(t, 2)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	// With low selectivities the chosen plan uses B-tree access paths.
	b := bindingsFor(2, 0.005, 64)
	rep, err := mod.Activate(b, StartupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Chosen.Format(), "B-tree") {
		t.Skip("chosen plan does not use an index; nothing to drop")
	}

	// Drop every index: only file-scan-based alternatives remain.
	none := func(rel, attr string) bool { return false }
	rep2, err := mod.Activate(b, StartupOptions{IndexExists: none})
	if err != nil {
		t.Fatalf("dynamic plan did not survive index drop: %v", err)
	}
	out := rep2.Chosen.Format()
	if strings.Contains(out, "B-tree") || strings.Contains(out, "Index-Join") {
		t.Errorf("validated choice still uses dropped indexes:\n%s", out)
	}
	if rep2.ChosenCost <= rep.ChosenCost {
		t.Errorf("fallback plan (%g) cannot be cheaper than the unrestricted choice (%g)",
			rep2.ChosenCost, rep.ChosenCost)
	}
	if err := rep2.Chosen.Validate(); err != nil {
		t.Error(err)
	}
}

// TestStaticPlanFailsOnIndexDrop: a static plan whose only access path
// requires a dropped index is infeasible — the contrast the paper draws
// with [CAK81]-style re-optimization.
func TestStaticPlanFailsOnIndexDrop(t *testing.T) {
	q := chain(1)
	res, err := runtimeopt.OptimizeStatic(q, search.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan.Format(), "B-tree") {
		t.Skip("static plan does not use an index")
	}
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	none := func(rel, attr string) bool { return false }
	_, err = mod.Activate(bindingsFor(1, 0.05, 64), StartupOptions{IndexExists: none})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

// TestPartialIndexDrop: dropping one relation's index leaves alternatives
// for the other relations untouched.
func TestPartialIndexDrop(t *testing.T) {
	res := dynamicPlan(t, 3)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	idx := allIndexes(res.Plan)
	// Drop only R1's selection index.
	partial := func(rel, attr string) bool {
		if rel == "R1" && attr == "a" {
			return false
		}
		return idx.exists(rel, attr)
	}
	b := bindingsFor(3, 0.01, 64)
	rep, err := mod.Activate(b, StartupOptions{IndexExists: partial})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rep.Chosen.Format(), "Filter-B-tree-Scan R1.a") {
		t.Errorf("chosen plan uses the dropped R1.a index:\n%s", rep.Chosen.Format())
	}
}
