package plan

import (
	"errors"
	"testing"

	"dynplan/internal/physical"
)

// TestActivateAvoidsPickedBranches re-activates with the previously
// picked alternatives excluded and verifies a genuinely different plan
// comes back — the mechanism the fallback executor uses after a branch
// fails mid-query.
func TestActivateAvoidsPickedBranches(t *testing.T) {
	res := dynamicPlan(t, 2)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	b := bindingsFor(2, 0.2, 64)
	rep, err := mod.Activate(b, StartupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Picked) != rep.Decisions {
		t.Fatalf("Picked has %d entries, Decisions = %d", len(rep.Picked), rep.Decisions)
	}
	if len(rep.Picked) == 0 {
		t.Skip("no choose-plan resolved; nothing to avoid")
	}

	avoid := make(map[*physical.Node]bool, len(rep.Picked))
	for _, n := range rep.Picked {
		avoid[n] = true
	}
	rep2, err := mod.Activate(b, StartupOptions{
		Avoid: func(n *physical.Node) bool { return avoid[n] },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rep2.Picked {
		if avoid[n] {
			t.Fatal("re-activation picked an avoided branch")
		}
	}
	if rep2.Chosen.Format() == rep.Chosen.Format() {
		t.Fatal("avoiding every picked branch still produced the identical plan")
	}
	if rep2.ChosenCost < rep.ChosenCost {
		t.Errorf("avoided plan cost %g beats unrestricted optimum %g", rep2.ChosenCost, rep.ChosenCost)
	}
}

// TestActivateAvoidEverythingInfeasible verifies that excluding every
// alternative of a choose-plan yields ErrInfeasible rather than a bogus
// plan.
func TestActivateAvoidEverythingInfeasible(t *testing.T) {
	res := dynamicPlan(t, 2)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	b := bindingsFor(2, 0.2, 64)
	_, err = mod.Activate(b, StartupOptions{
		Avoid: func(n *physical.Node) bool { return n.Op != physical.ChoosePlan },
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}
