package memo

import (
	"strings"
	"testing"

	"dynplan/internal/cost"
	"dynplan/internal/logical"
	"dynplan/internal/physical"
)

func winner(op physical.Op) Winner {
	return Winner{
		Plan:         &physical.Node{Op: op, Rel: "R", BaseCard: 1, RowBytes: 512},
		Cost:         cost.Point(1),
		Card:         cost.PointRange(1),
		Alternatives: 1,
	}
}

func TestStoreLookup(t *testing.T) {
	m := New()
	g := Goal{Set: logical.Bit(0)}
	if _, ok := m.Lookup(g); ok {
		t.Error("empty memo must not contain goals")
	}
	m.Store(g, winner(physical.FileScan))
	w, ok := m.Lookup(g)
	if !ok || w.Plan.Op != physical.FileScan {
		t.Error("stored winner not found")
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestGoalsDistinguishProps(t *testing.T) {
	m := New()
	set := logical.Bit(0) | logical.Bit(1)
	m.Store(Goal{Set: set}, winner(physical.HashJoin))
	m.Store(Goal{Set: set, Prop: physical.Prop{Order: "R.a"}}, winner(physical.MergeJoin))
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (props distinguish goals)", m.Len())
	}
	w, ok := m.Lookup(Goal{Set: set, Prop: physical.Prop{Order: "R.a"}})
	if !ok || w.Plan.Op != physical.MergeJoin {
		t.Error("ordered goal lookup failed")
	}
}

func TestStoreOverwriteKeepsOrder(t *testing.T) {
	m := New()
	g := Goal{Set: logical.Bit(2)}
	m.Store(g, winner(physical.FileScan))
	m.Store(g, winner(physical.BtreeScan))
	if m.Len() != 1 {
		t.Errorf("overwrite created duplicate: Len = %d", m.Len())
	}
	w, _ := m.Lookup(g)
	if w.Plan.Op != physical.BtreeScan {
		t.Error("overwrite did not replace the winner")
	}
}

func TestGoalString(t *testing.T) {
	g := Goal{Set: logical.Bit(1) | logical.Bit(3), Prop: physical.Prop{Order: "R.a"}}
	s := g.String()
	if !strings.Contains(s, "[1 3]") || !strings.Contains(s, "sorted(R.a)") {
		t.Errorf("Goal.String = %q", s)
	}
}
