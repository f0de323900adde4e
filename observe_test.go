package dynplan

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// obsEnv builds a small 3-way chain join system with data, the unit the
// acceptance criteria exercise: E1 ⋈ E2 ⋈ E3, each with a selection on a
// host variable.
type obsEnv struct {
	sys    *System
	db     *Database
	q      *Query
	static *Plan
	dyn    *Plan
	mod    *Module
	binds  Bindings
	params Params
}

func newObsEnv(t *testing.T) *obsEnv {
	t.Helper()
	sys := New()
	for i := 1; i <= 3; i++ {
		sys.MustCreateRelation(fmt.Sprintf("E%d", i), 400, 512,
			Attr{Name: "a", DomainSize: 400, BTree: true},
			Attr{Name: "jl", DomainSize: 80, BTree: true},
			Attr{Name: "jh", DomainSize: 80, BTree: true},
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
	static, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateData(7); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	binds := Bindings{Selectivities: map[string]float64{}, MemoryPages: 64}
	for i := 1; i <= 3; i++ {
		binds.Selectivities[fmt.Sprintf("v%d", i)] = 0.1
	}
	return &obsEnv{sys: sys, db: db, q: q, static: static, dyn: dyn, mod: mod,
		binds: binds, params: DefaultParams()}
}

// TestExplainAnalyzeThreeWayChainJoin is the acceptance criterion: a
// 3-way chain join executed under observability renders per-operator
// rows, page I/O, and time figures.
func TestExplainAnalyzeThreeWayChainJoin(t *testing.T) {
	e := newObsEnv(t)
	e.db.EnableObservability()
	defer e.db.observing.Store(false)

	res, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Operators == nil {
		t.Fatal("execution under observability produced no stats tree")
	}
	var count func(s *PlanStats) int
	count = func(s *PlanStats) int {
		n := 1
		for _, c := range s.Children {
			n += count(c)
		}
		return n
	}
	if got, want := count(res.Operators), e.static.NodeCount(); got != want {
		t.Errorf("stats tree has %d nodes, plan has %d", got, want)
	}
	total := res.Operators.Counters // the root's are inclusive of the tree
	if total.Rows != int64(len(res.Rows)) {
		t.Errorf("stats root rows %d != result rows %d", total.Rows, len(res.Rows))
	}
	if total.SeqPageReads+total.RandPageReads == 0 {
		t.Error("stats tree accounted no page reads for a 3-way join over base tables")
	}
	if total.NextCalls == 0 || total.Opens == 0 {
		t.Errorf("iterator traffic not metered: %+v", total)
	}

	out := res.ExplainAnalyze(e.params)
	t.Logf("\n%s", out)
	for _, want := range []string{"rows=", "seq=", "rand=", "wall=", "sim=", "Totals:"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	// Every base relation's scan appears with its label.
	for i := 1; i <= 3; i++ {
		if !strings.Contains(out, fmt.Sprintf("E%d", i)) {
			t.Errorf("EXPLAIN ANALYZE missing relation E%d:\n%s", i, out)
		}
	}
}

// TestObservabilityDisabledByDefault pins the default: no metering, no
// stats tree, and ExplainAnalyze says why.
func TestObservabilityDisabledByDefault(t *testing.T) {
	e := newObsEnv(t)
	res, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Operators != nil {
		t.Error("stats tree collected with observability disabled")
	}
	if out := res.ExplainAnalyze(e.params); !strings.Contains(out, "EnableObservability") {
		t.Errorf("disabled ExplainAnalyze should point at EnableObservability:\n%s", out)
	}
}

// TestOptimizerSpanMatchesPlan is the acceptance criterion tying the span
// to the Figure 6 quantities: the span's memo and choose-plan counts must
// agree with the search statistics and the produced plan.
func TestOptimizerSpanMatchesPlan(t *testing.T) {
	e := newObsEnv(t)
	span := e.dyn.Trace()
	if span == nil {
		t.Fatal("dynamic optimization recorded no span")
	}
	st := e.dyn.Stats()
	if span.Candidates != st.Candidates {
		t.Errorf("span candidates %d != stats %d", span.Candidates, st.Candidates)
	}
	if span.ChoosePlansEmitted != st.ChoosePlans {
		t.Errorf("span choose-plans emitted %d != stats %d", span.ChoosePlansEmitted, st.ChoosePlans)
	}
	if span.Comparisons != st.Comparisons {
		t.Errorf("span comparisons %d != stats %d", span.Comparisons, st.Comparisons)
	}
	if span.PrunedByBound != st.PrunedByBound || span.PrunedDominated != st.PrunedDominated {
		t.Errorf("span pruning (%d, %d) != stats (%d, %d)",
			span.PrunedByBound, span.PrunedDominated, st.PrunedByBound, st.PrunedDominated)
	}
	if span.PlanNodes != e.dyn.NodeCount() {
		t.Errorf("span plan nodes %d != plan %d", span.PlanNodes, e.dyn.NodeCount())
	}
	if span.PlanChoosePlans != e.dyn.ChoosePlanCount() {
		t.Errorf("span plan choose-plans %d != plan %d", span.PlanChoosePlans, e.dyn.ChoosePlanCount())
	}
	if span.EncodedAlternatives != e.dyn.Alternatives() {
		t.Errorf("span alternatives %g != plan %g", span.EncodedAlternatives, e.dyn.Alternatives())
	}
	if span.Goals <= 0 || span.KeptIncomparable <= 0 {
		t.Errorf("dynamic optimization should report goals and kept-incomparable plans: %+v", span)
	}
	if span.WallNanos <= 0 {
		t.Errorf("span wall time %d", span.WallNanos)
	}
	out := span.Render()
	for _, want := range []string{"goals", "candidates", "choose-plans"} {
		if !strings.Contains(out, want) {
			t.Errorf("span render missing %q:\n%s", want, out)
		}
	}

	// A static optimization also carries a span, with no choose-plans.
	sspan := e.static.Trace()
	if sspan == nil {
		t.Fatal("static optimization recorded no span")
	}
	if sspan.PlanChoosePlans != 0 || sspan.EncodedAlternatives != 1 {
		t.Errorf("static span: %+v", sspan)
	}
}

// TestActivationDecisionTrace checks the start-up decision trace: one
// entry per resolved choose-plan, costs aligned with alternatives, and
// the picked branch within range and no costlier than any other.
// Activation is the full forward sweep, which evaluates every
// alternative of every choose-plan.
func TestActivationDecisionTrace(t *testing.T) {
	e := newObsEnv(t)
	t.Run("full-evaluation", func(t *testing.T) {
		act, err := e.mod.Activate(e.binds)
		if err != nil {
			t.Fatal(err)
		}
		trace := act.DecisionTrace()
		if len(trace) == 0 {
			t.Fatal("activation of a dynamic plan produced no decision trace")
		}
		if len(trace) != act.Decisions() {
			t.Errorf("trace has %d entries, activation reports %d decisions",
				len(trace), act.Decisions())
		}
		for i, tr := range trace {
			if tr.Picked < 0 || tr.Picked >= len(tr.Alternatives) {
				t.Errorf("trace[%d]: picked %d out of range of %d alternatives",
					i, tr.Picked, len(tr.Alternatives))
				continue
			}
			if len(tr.Costs) != len(tr.Alternatives) {
				t.Errorf("trace[%d]: %d costs for %d alternatives",
					i, len(tr.Costs), len(tr.Alternatives))
				continue
			}
			if tr.Costs[tr.Picked] != slices.Min(tr.Costs) {
				t.Errorf("trace[%d]: picked cost %g, cheapest %g", i, tr.Costs[tr.Picked], slices.Min(tr.Costs))
			}
			if tr.Reason == "" {
				t.Errorf("trace[%d]: empty reason", i)
			}
		}
		out := act.ExplainDecisions()
		if !strings.Contains(out, "choose-plan") {
			t.Errorf("ExplainDecisions output:\n%s", out)
		}
	})
}

// TestProjectCarriesObservability pins the satellite fix: projecting a
// result must keep the I/O account, resilience metadata, and the
// observability attachments.
func TestProjectCarriesObservability(t *testing.T) {
	e := newObsEnv(t)
	e.db.EnableObservability()
	defer e.db.observing.Store(false)
	res, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res.Retries = 2 // simulate resilience metadata riding on the result
	res.FaultsAbsorbed = 3
	proj, err := res.Project(res.Columns[:1])
	if err != nil {
		t.Fatal(err)
	}
	if proj.SeqPageReads != res.SeqPageReads || proj.RandPageReads != res.RandPageReads ||
		proj.PageWrites != res.PageWrites || proj.TupleOps != res.TupleOps {
		t.Error("Project dropped the I/O account")
	}
	if proj.Retries != 2 || proj.FaultsAbsorbed != 3 {
		t.Error("Project dropped resilience metadata")
	}
	if proj.Operators != res.Operators {
		t.Error("Project dropped the operator stats tree")
	}
	if len(proj.Rows) != len(res.Rows) || len(proj.Columns) != 1 {
		t.Errorf("Project shape: %d rows × %d cols", len(proj.Rows), len(proj.Columns))
	}
}

// TestResilientAttachesDecisions checks that Resilient execution reports the
// successful attempt's start-up decisions on the result.
func TestResilientAttachesDecisions(t *testing.T) {
	e := newObsEnv(t)
	e.db.EnableObservability()
	defer e.db.observing.Store(false)
	res, err := e.db.Exec(context.Background(), e.mod, e.binds, ExecOptions{Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) == 0 {
		t.Fatal("resilient execution of a dynamic module attached no decision trace")
	}
	if res.Operators == nil {
		t.Error("resilient execution under observability produced no stats tree")
	}
	out := res.ExplainAnalyze(e.params)
	if !strings.Contains(out, "start-up decisions") {
		t.Errorf("EXPLAIN ANALYZE of a resilient run should include the decisions:\n%s", out)
	}
}

// TestRunRecordFromExecution checks the machine-readable record built
// from an observed execution.
func TestRunRecordFromExecution(t *testing.T) {
	e := newObsEnv(t)
	e.db.EnableObservability()
	defer e.db.observing.Store(false)
	res, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.RunRecordFor("chain3", "E1 join E2 join E3", e.params)
	if rec.SimCostTotal != res.SimulatedSeconds(e.params) {
		t.Errorf("record sim cost %g != result %g", rec.SimCostTotal, res.SimulatedSeconds(e.params))
	}
	if rec.Metrics["rows"] != float64(len(res.Rows)) {
		t.Errorf("record rows %g != %d", rec.Metrics["rows"], len(res.Rows))
	}
	if rec.Operators == nil {
		t.Error("record carries no operator tree from an observed run")
	}
	dir := t.TempDir()
	if err := rec.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
}

// TestObservedExecutionMatchesUnobserved pins the invariant that metering
// is read-only: the same plan under the same bindings returns the same
// rows and the same I/O account with and without metering.
func TestObservedExecutionMatchesUnobserved(t *testing.T) {
	e := newObsEnv(t)
	plain, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.db.EnableObservability()
	defer e.db.observing.Store(false)
	observed, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Rows) != len(observed.Rows) {
		t.Errorf("row counts differ: %d vs %d", len(plain.Rows), len(observed.Rows))
	}
	if plain.SeqPageReads != observed.SeqPageReads || plain.RandPageReads != observed.RandPageReads ||
		plain.PageWrites != observed.PageWrites || plain.TupleOps != observed.TupleOps {
		t.Errorf("I/O accounts differ: %+v vs %+v",
			[4]int64{plain.SeqPageReads, plain.RandPageReads, plain.PageWrites, plain.TupleOps},
			[4]int64{observed.SeqPageReads, observed.RandPageReads, observed.PageWrites, observed.TupleOps})
	}
}
