package dynplan

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// newTestSystem builds the two-relation schema of the Figure 2 example.
func newTestSystem(t *testing.T) *System {
	t.Helper()
	sys := New()
	sys.MustCreateRelation("R", 1000, 512,
		Attr{Name: "a", DomainSize: 1000, BTree: true},
		Attr{Name: "k", DomainSize: 500, BTree: true},
	)
	sys.MustCreateRelation("S", 400, 512,
		Attr{Name: "k", DomainSize: 500, BTree: true},
	)
	return sys
}

func figure2Query(t *testing.T, sys *System) *Query {
	t.Helper()
	q, err := sys.BuildQuery(QuerySpec{
		Relations: []RelSpec{
			{Name: "R", Pred: &Pred{Attr: "a", Variable: "v"}},
			{Name: "S"},
		},
		Joins: []JoinSpec{{LeftRel: "R", LeftAttr: "k", RightRel: "S", RightAttr: "k"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCreateRelationErrors(t *testing.T) {
	sys := New()
	if err := sys.CreateRelation("", 10, 512); err == nil {
		t.Error("empty relation name accepted")
	}
	if err := sys.CreateRelation("R", 10, 512, Attr{Name: "a", DomainSize: 10}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateRelation("R", 10, 512); err == nil {
		t.Error("duplicate relation accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCreateRelation must panic on error")
		}
	}()
	sys.MustCreateRelation("R", 10, 512)
}

func TestBuildQueryErrors(t *testing.T) {
	sys := newTestSystem(t)
	cases := []QuerySpec{
		{Relations: []RelSpec{{Name: "missing"}}},
		{Relations: []RelSpec{{Name: "R", Pred: &Pred{Attr: "zzz", Variable: "v"}}}},
		{Relations: []RelSpec{{Name: "R", Pred: &Pred{Attr: "a"}}}}, // bound pred without selectivity
		{Relations: []RelSpec{{Name: "R"}, {Name: "S"}}},            // disconnected
		{
			Relations: []RelSpec{{Name: "R"}, {Name: "S"}},
			Joins:     []JoinSpec{{LeftRel: "R", LeftAttr: "k", RightRel: "X", RightAttr: "k"}},
		},
		{
			Relations: []RelSpec{{Name: "R"}, {Name: "S"}},
			Joins:     []JoinSpec{{LeftRel: "R", LeftAttr: "zzz", RightRel: "S", RightAttr: "k"}},
		},
	}
	for i, spec := range cases {
		if _, err := sys.BuildQuery(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestFigure2EndToEnd(t *testing.T) {
	sys := newTestSystem(t)
	q := figure2Query(t, sys)

	if got := q.Variables(); len(got) != 1 || got[0] != "v" {
		t.Errorf("Variables = %v", got)
	}

	static, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	if static.IsDynamic() {
		t.Error("static plan is dynamic")
	}
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	if !dyn.IsDynamic() {
		t.Fatal("dynamic plan has no choose-plans")
	}
	if dyn.Cost().Lo >= dyn.Cost().Hi {
		t.Error("dynamic cost should be a non-degenerate interval")
	}
	if !strings.Contains(dyn.Explain(), "Choose-Plan") {
		t.Error("Explain lacks choose-plan operators")
	}

	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	// Module serialization round trip through the public API.
	loaded, err := sys.LoadModule(mod.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NodeCount() != mod.NodeCount() {
		t.Error("LoadModule changed node count")
	}

	db := sys.OpenDatabase()
	if err := db.GenerateData(3); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}

	var plans []string
	for _, sel := range []float64{0.01, 0.95} {
		b := Bindings{Selectivities: map[string]float64{"v": sel}, MemoryPages: 64}
		act, err := mod.Activate(b)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, act.Explain())

		// Guarantee against run-time optimization.
		rt, err := sys.OptimizeAt(q, b)
		if err != nil {
			t.Fatal(err)
		}
		eps := DefaultParams().ChooseOverhead*float64(dyn.ChoosePlanCount()) + 1e-9
		if act.PredictedCost() > rt.Cost().Lo+eps {
			t.Errorf("sel %g: chosen %g, optimal %g", sel, act.PredictedCost(), rt.Cost().Lo)
		}

		// Execution through the public API; result must match the static
		// plan's result.
		got, err := db.Exec(context.Background(), act, b, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Exec(context.Background(), static, b, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if normalizeResult(got) != normalizeResult(want) {
			t.Errorf("sel %g: dynamic and static plans disagree on results", sel)
		}
	}
	if plans[0] == plans[1] {
		t.Error("activation chose the same plan for selectivities 0.01 and 0.95")
	}
}

// normalizeResult canonicalizes rows independent of column order.
func normalizeResult(r *ExecResult) string {
	cols := append([]string(nil), r.Columns...)
	sort.Strings(cols)
	perm := make([]int, len(cols))
	for i, c := range cols {
		for j, name := range r.Columns {
			if name == c {
				perm[i] = j
			}
		}
	}
	lines := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		vals := make([]int64, len(perm))
		for k, j := range perm {
			vals[k] = row[j]
		}
		lines[i] = fmt.Sprint(vals)
	}
	sort.Strings(lines)
	return strings.Join(lines, ";")
}

func TestExecRejectsDynamicPlan(t *testing.T) {
	sys := newTestSystem(t)
	q := figure2Query(t, sys)
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
	b := Bindings{Selectivities: map[string]float64{"v": 0.5}, MemoryPages: 64}
	if _, err := db.Exec(context.Background(), dyn, b, ExecOptions{}); err == nil {
		t.Error("executing a dynamic plan directly must fail")
	}
}

func TestInsertAndExecute(t *testing.T) {
	sys := New()
	sys.MustCreateRelation("T", 4, 512, Attr{Name: "x", DomainSize: 10, BTree: true})
	q, err := sys.BuildQuery(QuerySpec{
		Relations: []RelSpec{{Name: "T", Pred: &Pred{Attr: "x", Variable: "v"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.Insert("T", []int64{1}, []int64{3}, []int64{5}, []int64{9}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	static, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	// selectivity 0.5 over domain 10 => predicate x < 5 => rows 1 and 3.
	res, err := db.Exec(context.Background(), static, Bindings{Selectivities: map[string]float64{"v": 0.5}, MemoryPages: 64}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("got %d rows, want 2", len(res.Rows))
	}
	if res.Columns[0] != "T.x" {
		t.Errorf("columns = %v", res.Columns)
	}
	// Row width validation.
	if err := db.Insert("T", []int64{1, 2}); err == nil {
		t.Error("wrong-width row accepted")
	}
	if err := db.Insert("missing", []int64{1}); err == nil {
		t.Error("insert into unknown relation accepted")
	}
}

func TestShrinkThroughAPI(t *testing.T) {
	sys := newTestSystem(t)
	q := figure2Query(t, sys)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mod.Shrink(); err == nil {
		t.Error("shrink before activation must fail")
	}
	for i := 0; i < 20; i++ {
		b := Bindings{Selectivities: map[string]float64{"v": 0.001}, MemoryPages: 64}
		if _, err := mod.Activate(b); err != nil {
			t.Fatal(err)
		}
	}
	if f := mod.UsageFraction(); f >= 1 {
		t.Errorf("usage fraction = %g", f)
	}
	shrunk, err := mod.Shrink()
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.NodeCount() >= mod.NodeCount() {
		t.Error("shrunk module is not smaller")
	}
}

func TestCostIntervalString(t *testing.T) {
	c := CostInterval{Lo: 1, Hi: 1}
	if c.String() != "1s" {
		t.Errorf("point cost string = %q", c.String())
	}
	c = CostInterval{Lo: 0.5, Hi: 2}
	if !strings.Contains(c.String(), "[") {
		t.Errorf("interval string = %q", c.String())
	}
}

func TestPlanIntrospection(t *testing.T) {
	sys := newTestSystem(t)
	q := figure2Query(t, sys)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.NodeCount() <= 0 || dyn.Alternatives() < 2 {
		t.Error("plan introspection degenerate")
	}
	st := dyn.Stats()
	if st.Goals == 0 || st.Candidates == 0 {
		t.Error("stats empty")
	}
	if dyn.Root() == nil {
		t.Error("Root is nil")
	}
	if q.q == nil || !strings.Contains(q.String(), "⋈") {
		t.Error("query introspection degenerate")
	}
}

func TestActivationString(t *testing.T) {
	sys := newTestSystem(t)
	q := figure2Query(t, sys)
	dyn, _ := sys.OptimizeDynamic(q, Uncertainty{})
	mod, _ := dyn.Module()
	act, err := mod.Activate(Bindings{Selectivities: map[string]float64{"v": 0.5}, MemoryPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(act.String(), "decisions") {
		t.Errorf("Activation.String = %q", act.String())
	}
	if act.report.TotalStartupSeconds() <= 0 || act.report.MeasuredCPU <= 0 {
		t.Error("activation timing not recorded")
	}
	if act.Decisions() < 1 || act.NodesEvaluated() < dyn.NodeCount() {
		t.Error("activation accounting degenerate")
	}
}
