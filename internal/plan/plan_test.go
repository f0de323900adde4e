package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/catalog"
	"dynplan/internal/cost"
	"dynplan/internal/logical"
	"dynplan/internal/physical"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
)

// chain builds the paper-style chain query used across these tests.
func chain(n int) *logical.Query {
	rng := rand.New(rand.NewSource(31))
	q := &logical.Query{}
	for i := 0; i < n; i++ {
		card := 100 + rng.Intn(901)
		dom := func() int { return 1 + int(float64(card)*(0.2+rng.Float64()*1.05)) }
		rel := catalog.NewRelation(fmt.Sprintf("R%d", i+1), card, 512,
			catalog.NewAttribute("a", dom(), true),
			catalog.NewAttribute("jl", dom(), true),
			catalog.NewAttribute("jh", dom(), true),
		)
		q.Rels = append(q.Rels, logical.QRel{Rel: rel,
			Pred: &logical.SelPred{Attr: rel.MustAttribute("a"), Variable: fmt.Sprintf("v%d", i+1)}})
	}
	for i := 0; i+1 < n; i++ {
		q.Edges = append(q.Edges, logical.JoinEdge{Left: i, Right: i + 1,
			LeftAttr:  q.Rels[i].Rel.MustAttribute("jh"),
			RightAttr: q.Rels[i+1].Rel.MustAttribute("jl")})
	}
	return q
}

func dynamicPlan(t *testing.T, n int) *search.Result {
	t.Helper()
	q := chain(n)
	res, err := runtimeopt.OptimizeDynamic(q, search.Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func bindingsFor(n int, sel, mem float64) *bindings.Bindings {
	b := bindings.NewBindings(mem)
	for i := 1; i <= n; i++ {
		b.BindSelectivity(fmt.Sprintf("v%d", i), sel)
	}
	return b
}

func TestModuleRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		res := dynamicPlan(t, n)
		mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(mod.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if loaded.NodeCount() != mod.NodeCount() {
			t.Errorf("n=%d: node count %d after round trip, want %d",
				n, loaded.NodeCount(), mod.NodeCount())
		}
		if loaded.Root().Format() != mod.Root().Format() {
			t.Errorf("n=%d: plan structure changed in round trip", n)
		}
		// Costs must be identical after deserialization for any binding.
		model := physical.NewModel(physical.DefaultParams())
		for _, sel := range []float64{0.01, 0.5, 0.99} {
			env := bindingsFor(n, sel, 64).Env()
			a := model.Evaluate(mod.Root(), env).Cost
			b := model.Evaluate(loaded.Root(), env).Cost
			if a != b {
				t.Errorf("n=%d sel=%g: cost %v after round trip, want %v", n, sel, b, a)
			}
		}
	}
}

func TestModuleSharingPreserved(t *testing.T) {
	res := dynamicPlan(t, 3)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(mod.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// DAG sharing: the deserialized plan must have exactly as many
	// distinct nodes, not a tree expansion.
	if loaded.Root().CountNodes() != res.Plan.CountNodes() {
		t.Errorf("sharing lost: %d nodes, want %d", loaded.Root().CountNodes(), res.Plan.CountNodes())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________"),
	}
	for i, raw := range cases {
		if _, err := Load(raw); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncated real module.
	res := dynamicPlan(t, 2)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	raw := mod.Bytes()
	for _, cut := range []int{len(raw) / 2, len(raw) - 1, 9} {
		if _, err := Load(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage.
	if _, err := Load(append(append([]byte{}, raw...), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestNewModuleRejectsInvalidPlan(t *testing.T) {
	bad := &physical.Node{Op: physical.FileScan, RowBytes: 512} // no relation
	if _, err := NewModule(bad, 0, 0); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestActivateChoosesOptimalAlternative(t *testing.T) {
	res := dynamicPlan(t, 2)
	q := chain(2)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []float64{0.003, 0.2, 0.9} {
		b := bindingsFor(2, sel, 64)
		rep, err := mod.Activate(b, StartupOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Chosen.CountChoosePlans() != 0 {
			t.Fatal("chosen plan still contains choose-plans")
		}
		if err := rep.Chosen.Validate(); err != nil {
			t.Fatal(err)
		}
		rt, err := runtimeopt.OptimizeRuntime(q, b, search.Config{})
		if err != nil {
			t.Fatal(err)
		}
		eps := physical.DefaultParams().ChooseOverhead*float64(res.Plan.CountChoosePlans()) + 1e-9
		if rep.ChosenCost > rt.Cost.Lo+eps || rep.ChosenCost < rt.Cost.Lo-1e-9 {
			t.Errorf("sel=%g: chosen cost %g, run-time optimal %g", sel, rep.ChosenCost, rt.Cost.Lo)
		}
	}
}

func TestActivateReportsAccounting(t *testing.T) {
	res := dynamicPlan(t, 4)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	b := bindingsFor(4, 0.4, 48)
	stats := NewUsageStats()
	rep, err := mod.Activate(b, StartupOptions{Usage: stats})
	if err != nil {
		t.Fatal(err)
	}
	// Decisions happen along the chosen path only; choose-plans inside
	// unchosen alternatives are evaluated (their cost is needed) but not
	// resolved.
	if rep.Decisions < 1 || rep.Decisions > res.Plan.CountChoosePlans() {
		t.Errorf("decisions = %d, choose-plans = %d", rep.Decisions, res.Plan.CountChoosePlans())
	}
	if rep.NodesEvaluated != mod.NodeCount() {
		t.Errorf("evaluated %d nodes, module has %d (full evaluation expected)",
			rep.NodesEvaluated, mod.NodeCount())
	}
	params := physical.DefaultParams()
	if rep.SimCPUSeconds != float64(rep.NodesEvaluated)*params.StartupNodeTime {
		t.Error("simulated CPU time formula mismatch")
	}
	if rep.SimIOSeconds != params.ModuleReadTime(mod.NodeCount()) {
		t.Error("simulated I/O time formula mismatch")
	}
	if rep.TotalStartupSeconds() != rep.SimCPUSeconds+rep.SimIOSeconds {
		t.Error("TotalStartupSeconds mismatch")
	}
	if rep.MeasuredCPU <= 0 {
		t.Error("measured CPU not recorded")
	}
	if _, n := stats.snapshot(mod.NodeCount()); n != 1 {
		t.Errorf("activations = %d", n)
	}
}

func TestActivateRejectsUnboundVariables(t *testing.T) {
	res := dynamicPlan(t, 2)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	b := bindings.NewBindings(64) // nothing bound
	if _, err := mod.Activate(b, StartupOptions{}); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("expected unbound-variable error, got %v", err)
	}
}

func TestShrinkRemovesUnusedAlternatives(t *testing.T) {
	res := dynamicPlan(t, 4)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	stats := NewUsageStats()
	if _, err := mod.Shrink(stats); err == nil {
		t.Error("shrink before any activation must fail")
	}
	// Activate repeatedly in a narrow band of bindings.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		b := bindingsFor(4, 0.001+rng.Float64()*0.02, 64)
		if _, err := mod.Activate(b, StartupOptions{Usage: stats}); err != nil {
			t.Fatal(err)
		}
	}
	if f := mod.UsageFraction(stats); f <= 0 || f >= 1 {
		t.Errorf("usage fraction %g not in (0,1) — narrow bindings should use a strict subset", f)
	}
	shrunk, err := mod.Shrink(stats)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.NodeCount() >= mod.NodeCount() {
		t.Errorf("shrunk module not smaller: %d vs %d", shrunk.NodeCount(), mod.NodeCount())
	}
	if err := shrunk.Root().Validate(); err != nil {
		t.Fatal(err)
	}
	// Within the observed binding band, the shrunk module must choose
	// plans of identical cost.
	for i := 0; i < 10; i++ {
		b := bindingsFor(4, 0.001+rng.Float64()*0.02, 64)
		a1, err := mod.Activate(b, StartupOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a2, err := shrunk.Activate(b, StartupOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a1.ChosenCost != a2.ChosenCost {
			t.Errorf("draw %d: shrunk module chose %g, full %g", i, a2.ChosenCost, a1.ChosenCost)
		}
	}
}

func TestShrinkOnStaticModule(t *testing.T) {
	q := chain(2)
	res, err := runtimeopt.OptimizeStatic(q, search.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	stats := NewUsageStats()
	if _, err := mod.Activate(bindingsFor(2, 0.5, 64), StartupOptions{Usage: stats}); err != nil {
		t.Fatal(err)
	}
	shrunk, err := mod.Shrink(stats)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.NodeCount() != mod.NodeCount() {
		t.Error("shrinking a static plan must be a no-op")
	}
}

func TestStaticModuleActivation(t *testing.T) {
	q := chain(3)
	res, err := runtimeopt.OptimizeStatic(q, search.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mod.Activate(bindingsFor(3, 0.7, 64), StartupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decisions != 0 {
		t.Errorf("static activation made %d decisions", rep.Decisions)
	}
	if rep.Chosen.Format() != res.Plan.Format() {
		t.Error("static activation altered the plan")
	}
}

func TestReadTimeScalesWithNodes(t *testing.T) {
	res1 := dynamicPlan(t, 1)
	res4 := dynamicPlan(t, 4)
	m1, _ := NewModule(res1.Plan, res1.Stats.Nodes(), res1.Stats.Edges())
	m4, _ := NewModule(res4.Plan, res4.Stats.Nodes(), res4.Stats.Edges())
	p := physical.DefaultParams()
	if m4.ReadTime(p) <= m1.ReadTime(p) {
		t.Error("bigger module must take longer to read")
	}
	want := float64(m1.NodeCount()*p.NodeBytes) / p.DiskBandwidth
	if m1.ReadTime(p) != want {
		t.Errorf("ReadTime = %g, want %g", m1.ReadTime(p), want)
	}
}

func TestUsageFractionEmptyModule(t *testing.T) {
	res := dynamicPlan(t, 1)
	mod, _ := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if mod.UsageFraction(NewUsageStats()) != 0 {
		t.Error("fresh module must report zero usage")
	}
}

// TestResolveSharesNothingUnresolved: the resolved tree must never alias
// a choose-plan node.
func TestResolvedTreeClean(t *testing.T) {
	res := dynamicPlan(t, 3)
	mod, _ := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	rep, err := mod.Activate(bindingsFor(3, 0.5, 64), StartupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *physical.Node) bool
	walk = func(n *physical.Node) bool {
		if n.Op == physical.ChoosePlan {
			return false
		}
		for _, c := range n.Children {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	if !walk(rep.Chosen) {
		t.Error("resolved plan contains a choose-plan")
	}
}

func TestCostEnvelopeContainsChosen(t *testing.T) {
	res := dynamicPlan(t, 3)
	mod, _ := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20; i++ {
		b := bindingsFor(3, rng.Float64(), 16+rng.Float64()*96)
		rep, err := mod.Activate(b, StartupOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ChosenCost < res.Cost.Lo-1e-9 || rep.ChosenCost > res.Cost.Hi+1e-9 {
			t.Errorf("chosen cost %g outside compile-time envelope %v", rep.ChosenCost, res.Cost)
		}
	}
}

func TestEncodeDecodeEveryField(t *testing.T) {
	n := &physical.Node{
		Op: physical.IndexJoin, Rel: "S", Attr: "j", SelAttr: "S.a", Var: "w",
		LeftAttr: "R.j", RightAttr: "S.j", EdgeSel: 0.125, FixedSel: 0,
		BaseCard: 77, RowBytes: 1024,
		Children: []*physical.Node{
			{Op: physical.FileScan, Rel: "R", BaseCard: 10, RowBytes: 512},
		},
	}
	mod, err := NewModule(n, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(mod.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Root()
	if got.Op != n.Op || got.Rel != n.Rel || got.Attr != n.Attr || got.SelAttr != n.SelAttr ||
		got.Var != n.Var || got.LeftAttr != n.LeftAttr || got.RightAttr != n.RightAttr ||
		got.EdgeSel != n.EdgeSel || got.BaseCard != n.BaseCard || got.RowBytes != n.RowBytes {
		t.Errorf("field loss in round trip: %+v vs %+v", got, n)
	}
	if len(got.Children) != 1 || got.Children[0].Rel != "R" {
		t.Error("children lost in round trip")
	}
}

var _ = cost.Point // keep import for future extensions of this file
