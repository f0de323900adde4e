package physical

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/cost"
)

// leaf builders used across the tests.

func fileScan(rel string, card int) *Node {
	return &Node{Op: FileScan, Rel: rel, BaseCard: card, RowBytes: 512}
}

func filterBtree(rel, attr, v string, card int) *Node {
	return &Node{Op: FilterBtreeScan, Rel: rel, Attr: attr, SelAttr: rel + "." + attr, Var: v, BaseCard: card, RowBytes: 512}
}

func filtered(v string, child *Node) *Node {
	return &Node{Op: Filter, SelAttr: child.Rel + ".a", Var: v, RowBytes: child.RowBytes, Children: []*Node{child}}
}

func hashJoin(l, r *Node) *Node {
	return &Node{Op: HashJoin, LeftAttr: l.Rel + ".j", RightAttr: r.Rel + ".j", EdgeSel: 0.002,
		RowBytes: l.RowBytes + r.RowBytes, Children: []*Node{l, r}}
}

func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		FileScan:        "File-Scan",
		BtreeScan:       "B-tree-Scan",
		FilterBtreeScan: "Filter-B-tree-Scan",
		Filter:          "Filter",
		HashJoin:        "Hash-Join",
		MergeJoin:       "Merge-Join",
		IndexJoin:       "Index-Join",
		Sort:            "Sort",
		ChoosePlan:      "Choose-Plan",
	}
	for op, w := range want {
		if op.String() != w {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), w)
		}
	}
	if Op(99).String() != "Op(99)" {
		t.Error("unknown op string")
	}
	if !HashJoin.IsJoin() || FileScan.IsJoin() {
		t.Error("IsJoin misbehaves")
	}
	if !BtreeScan.IsScan() || Sort.IsScan() {
		t.Error("IsScan misbehaves")
	}
}

func TestPropSatisfies(t *testing.T) {
	sorted := Prop{Order: "R.a"}
	if !sorted.Satisfies(None) {
		t.Error("any delivered property satisfies no requirement")
	}
	if !sorted.Satisfies(sorted) {
		t.Error("matching order must satisfy")
	}
	if None.Satisfies(sorted) {
		t.Error("unordered output must not satisfy an order requirement")
	}
	if (Prop{}).String() != "any" || sorted.String() != "sorted(R.a)" {
		t.Error("Prop.String misbehaves")
	}
}

func TestOrderingDelivery(t *testing.T) {
	bt := &Node{Op: BtreeScan, Rel: "R", Attr: "a", BaseCard: 10, RowBytes: 512}
	if bt.Ordering() != "R.a" {
		t.Errorf("BtreeScan ordering = %q", bt.Ordering())
	}
	f := &Node{Op: Filter, SelAttr: "R.b", Var: "v", RowBytes: 512, Children: []*Node{bt}}
	if f.Ordering() != "R.a" {
		t.Error("Filter must preserve input order")
	}
	hj := hashJoin(fileScan("R", 10), fileScan("S", 10))
	if hj.Ordering() != "" {
		t.Error("HashJoin delivers no order")
	}
	mj := &Node{Op: MergeJoin, LeftAttr: "R.j", RightAttr: "S.j", EdgeSel: 0.1, RowBytes: 1024,
		Children: []*Node{fileScan("R", 10), fileScan("S", 10)}}
	if mj.Ordering() != "R.j" {
		t.Error("MergeJoin delivers its left attribute order")
	}
	sorted := &Node{Op: Sort, Attr: "S.j", RowBytes: 512, Children: []*Node{fileScan("S", 10)}}
	if sorted.Ordering() != "S.j" {
		t.Error("Sort delivers its key order")
	}
	// Choose-plan delivers an order only when all alternatives do.
	cp := &Node{Op: ChoosePlan, RowBytes: 512, Children: []*Node{bt, bt}}
	if cp.Ordering() != "R.a" {
		t.Error("Choose-Plan over same-order alternatives delivers that order")
	}
	cp2 := &Node{Op: ChoosePlan, RowBytes: 512, Children: []*Node{bt, fileScan("R", 10)}}
	if cp2.Ordering() != "" {
		t.Error("Choose-Plan over mixed orders delivers none")
	}
}

func TestCountingAndHistogram(t *testing.T) {
	shared := filterBtree("R", "a", "v", 100)
	alt := filtered("v", fileScan("R", 100))
	cp := &Node{Op: ChoosePlan, RowBytes: 512, Children: []*Node{shared, alt}}
	j1 := hashJoin(cp, fileScan("S", 50))
	j2 := hashJoin(fileScan("S", 50), cp) // distinct S scan
	root := &Node{Op: ChoosePlan, RowBytes: 1024, Children: []*Node{j1, j2}}

	// Distinct nodes: shared, filter, filescanR, cp, scanS ×2, j1, j2, root = 9.
	if got := root.CountNodes(); got != 9 {
		t.Errorf("CountNodes = %d, want 9", got)
	}
	if got := root.CountChoosePlans(); got != 2 {
		t.Errorf("CountChoosePlans = %d, want 2", got)
	}
	hist := root.Operators()
	if hist[ChoosePlan] != 2 || hist[HashJoin] != 2 || hist[FileScan] != 3 {
		t.Errorf("Operators = %v", hist)
	}
	// Alternatives: each join has 2 (inner choose), root sums: 2+2 = 4.
	if got := root.Alternatives(); got != 4 {
		t.Errorf("Alternatives = %g, want 4", got)
	}
	vars := root.Variables()
	if len(vars) != 1 || vars[0] != "v" {
		t.Errorf("Variables = %v", vars)
	}
}

func TestFormatSharesSubplans(t *testing.T) {
	shared := fileScan("R", 100)
	root := &Node{Op: ChoosePlan, RowBytes: 512, Children: []*Node{
		filtered("v", shared),
		&Node{Op: Sort, Attr: "R.a", RowBytes: 512, Children: []*Node{shared}},
	}}
	out := root.Format()
	if strings.Count(out, "File-Scan R") != 1 {
		t.Errorf("shared subplan printed more than once:\n%s", out)
	}
	if !strings.Contains(out, "shared") {
		t.Errorf("no shared reference marker:\n%s", out)
	}
}

func TestValidate(t *testing.T) {
	good := hashJoin(fileScan("R", 10), filterBtree("S", "a", "v", 20))
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	bad := []*Node{
		{Op: FileScan, RowBytes: 512},                                                                         // no relation
		{Op: FileScan, Rel: "R", RowBytes: 0, BaseCard: 1},                                                    // zero width
		{Op: BtreeScan, Rel: "R", RowBytes: 512},                                                              // no attr
		{Op: Filter, RowBytes: 512, Children: []*Node{fileScan("R", 1)}},                                      // no predicate
		{Op: Filter, SelAttr: "R.a", FixedSel: 2, RowBytes: 512, Children: []*Node{fileScan("R", 1)}},         // bad fixed sel
		{Op: Sort, RowBytes: 512, Children: []*Node{fileScan("R", 1)}},                                        // no key
		{Op: HashJoin, RowBytes: 512, Children: []*Node{fileScan("R", 1), fileScan("S", 1)}},                  // no join attrs
		{Op: ChoosePlan, RowBytes: 512, Children: []*Node{fileScan("R", 1)}},                                  // one alternative
		{Op: IndexJoin, RowBytes: 512, Children: []*Node{fileScan("R", 1)}},                                   // no inner index
		{Op: Op(77), RowBytes: 512},                                                                           // unknown op
		{Op: HashJoin, LeftAttr: "R.j", RightAttr: "S.j", RowBytes: 512, Children: []*Node{fileScan("R", 1)}}, // child count
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

// uncertainEnv and randomBinding support the containment property tests.
func uncertainEnv(vars []string, memUncertain bool) *bindings.Env {
	mem := cost.PointRange(64)
	if memUncertain {
		mem = cost.NewRange(16, 112)
	}
	env := bindings.NewEnv(mem)
	for _, v := range vars {
		env.Bind(v, cost.NewRange(0, 1))
	}
	return env
}

func randomBinding(rng *rand.Rand, vars []string, memUncertain bool) *bindings.Env {
	mem := 64.0
	if memUncertain {
		mem = 16 + rng.Float64()*96
	}
	env := bindings.NewEnv(cost.PointRange(mem))
	for _, v := range vars {
		env.Bind(v, cost.PointRange(rng.Float64()))
	}
	return env
}

// randomPlan builds an arbitrary well-formed plan over a handful of
// relations, exercising every operator kind.
func randomPlan(rng *rand.Rand, depth int, idx *int) *Node {
	*idx++
	rel := string(rune('A' + *idx%20))
	v := "v" + rel
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return filtered(v, fileScan(rel, 100+rng.Intn(900)))
		case 1:
			return filterBtree(rel, "a", v, 100+rng.Intn(900))
		default:
			return &Node{Op: BtreeScan, Rel: rel, Attr: "a", BaseCard: 100 + rng.Intn(900), RowBytes: 512}
		}
	}
	switch rng.Intn(5) {
	case 0:
		l, r := randomPlan(rng, depth-1, idx), randomPlan(rng, depth-1, idx)
		return &Node{Op: HashJoin, LeftAttr: "L.j", RightAttr: "R.j", EdgeSel: 1 / float64(100+rng.Intn(900)),
			RowBytes: l.RowBytes + r.RowBytes, Children: []*Node{l, r}}
	case 1:
		l, r := randomPlan(rng, depth-1, idx), randomPlan(rng, depth-1, idx)
		return &Node{Op: MergeJoin, LeftAttr: "L.j", RightAttr: "R.j", EdgeSel: 1 / float64(100+rng.Intn(900)),
			RowBytes: l.RowBytes + r.RowBytes, Children: []*Node{
				{Op: Sort, Attr: "L.j", RowBytes: l.RowBytes, Children: []*Node{l}},
				{Op: Sort, Attr: "R.j", RowBytes: r.RowBytes, Children: []*Node{r}},
			}}
	case 2:
		outer := randomPlan(rng, depth-1, idx)
		return &Node{Op: IndexJoin, Rel: rel, Attr: "j", SelAttr: rel + ".a", Var: v,
			LeftAttr: "L.j", RightAttr: rel + ".j", EdgeSel: 1 / float64(100+rng.Intn(900)),
			BaseCard: 100 + rng.Intn(900), RowBytes: outer.RowBytes + 512, Children: []*Node{outer}}
	case 3:
		c := randomPlan(rng, depth-1, idx)
		return &Node{Op: Sort, Attr: "X.j", RowBytes: c.RowBytes, Children: []*Node{c}}
	default:
		a := randomPlan(rng, depth-1, idx)
		b := filtered("v"+rel, fileScan(rel, 100+rng.Intn(900)))
		// Alternatives of a choose-plan must produce the same logical
		// result in reality; for cost-model testing structural equality
		// is not required.
		return &Node{Op: ChoosePlan, RowBytes: a.RowBytes, Children: []*Node{a, b}}
	}
}

// TestEvaluationContainment is the central cost-model soundness property:
// for any plan, the interval (cost, cardinality) computed under an
// uncertain environment contains the point evaluation under every binding
// drawn from within that environment. This is what makes dominance
// pruning and the choose-plan guarantee sound.
func TestEvaluationContainment(t *testing.T) {
	model := NewModel(DefaultParams())
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		idx := 0
		plan := randomPlan(rng, 3, &idx)
		if err := plan.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid plan: %v", trial, err)
		}
		vars := plan.Variables()
		memUncertain := trial%2 == 0
		wide := model.Evaluate(plan, uncertainEnv(vars, memUncertain))
		for draw := 0; draw < 20; draw++ {
			env := randomBinding(rng, vars, memUncertain)
			pt := model.Evaluate(plan, env)
			if !pt.Cost.IsPoint() {
				t.Fatalf("trial %d: point env produced interval cost %v", trial, pt.Cost)
			}
			const slack = 1e-9
			if pt.Cost.Lo < wide.Cost.Lo-slack || pt.Cost.Lo > wide.Cost.Hi+slack {
				t.Fatalf("trial %d draw %d: point cost %v outside interval %v",
					trial, draw, pt.Cost, wide.Cost)
			}
			if pt.Card.Lo < wide.Card.Lo-slack || pt.Card.Hi > wide.Card.Hi+slack {
				t.Fatalf("trial %d draw %d: point card %v outside interval %v",
					trial, draw, pt.Card, wide.Card)
			}
		}
	}
}

// TestChoosePlanCostFormula checks §5's example: alternatives [0,10] and
// [1,1] with overhead 0.01 combine to [0.01, 1.01].
func TestChoosePlanCostFormula(t *testing.T) {
	got := cost.Min(cost.Interval(0, 10), cost.Interval(1, 1)).AddScalar(0.01)
	if got != cost.Interval(0.01, 1.01) {
		t.Errorf("choose-plan cost = %v, want [0.01, 1.01]", got)
	}
}

func TestChoosePlanEvaluation(t *testing.T) {
	p := DefaultParams()
	model := NewModel(p)
	a := filterBtree("R", "a", "v", 1000) // cheap at low selectivity
	b := filtered("v", fileScan("R", 1000))
	cp := &Node{Op: ChoosePlan, RowBytes: 512, Children: []*Node{a, b}}
	env := bindings.NewEnv(cost.PointRange(64)).Bind("v", cost.PointRange(0.01))
	ra := model.Evaluate(a, env)
	rb := model.Evaluate(b, env)
	rc := model.Evaluate(cp, env)
	wantLo := ra.Cost.Lo
	if rb.Cost.Lo < wantLo {
		wantLo = rb.Cost.Lo
	}
	if diff := rc.Cost.Lo - (wantLo + p.ChooseOverhead); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("choose-plan point cost %g, want min(%g,%g)+%g",
			rc.Cost.Lo, ra.Cost.Lo, rb.Cost.Lo, p.ChooseOverhead)
	}
}

// TestLowerSharesSubplans: a shared subplan lowers to one index, so a
// sweep evaluates each node of a DAG once — and two roots that share a
// subplan lower it once between them.
func TestLowerSharesSubplans(t *testing.T) {
	shared := filtered("v", fileScan("R", 500))
	a := &Node{Op: Sort, Attr: "R.a", RowBytes: 512, Children: []*Node{shared}}
	b := &Node{Op: Sort, Attr: "R.b", RowBytes: 512, Children: []*Node{shared}}
	root := &Node{Op: ChoosePlan, RowBytes: 512, Children: []*Node{a, b}}
	p, err := Lower(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Nodes); got != root.CountNodes() {
		t.Errorf("lowered %d nodes, DAG has %d", got, root.CountNodes())
	}
	if ia, ib := p.Index(a), p.Index(b); !slices.Equal(p.Inputs(ia), p.Inputs(ib)) {
		t.Errorf("the sorts' inputs lower to %v and %v, want one index", p.Inputs(ia), p.Inputs(ib))
	}
	both, err := Lower(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(both.Nodes); got != root.CountNodes()-1 {
		t.Errorf("two roots sharing a subplan lowered to %d nodes, want %d", got, root.CountNodes()-1)
	}
}

// TestMemoryMonotonicity: more memory never increases cost.
func TestMemoryMonotonicity(t *testing.T) {
	model := NewModel(DefaultParams())
	big := hashJoin(filtered("v", fileScan("R", 1000)), fileScan("S", 1000))
	prev := -1.0
	for mem := 120.0; mem >= 4; mem -= 8 {
		env := bindings.NewEnv(cost.PointRange(mem)).Bind("v", cost.PointRange(0.9))
		c := model.Evaluate(big, env).Cost.Lo
		if prev >= 0 && c < prev-1e-12 {
			t.Fatalf("cost decreased from %g to %g as memory shrank to %g", prev, c, mem)
		}
		prev = c
	}
}

// TestSelectivityMonotonicity: higher selectivity never decreases cost.
func TestSelectivityMonotonicity(t *testing.T) {
	model := NewModel(DefaultParams())
	plans := []*Node{
		filterBtree("R", "a", "v", 1000),
		filtered("v", fileScan("R", 1000)),
		hashJoin(filtered("v", fileScan("R", 800)), fileScan("S", 400)),
	}
	for pi, plan := range plans {
		prev := -1.0
		for sel := 0.0; sel <= 1.0; sel += 0.05 {
			env := bindings.NewEnv(cost.PointRange(64)).Bind("v", cost.PointRange(sel))
			c := model.Evaluate(plan, env).Cost.Lo
			if c < prev-1e-12 {
				t.Fatalf("plan %d: cost decreased (%g -> %g) as selectivity rose to %g", pi, prev, c, sel)
			}
			prev = c
		}
	}
}

func TestEvaluateNodeMatchesModel(t *testing.T) {
	model := NewModel(DefaultParams())
	env := bindings.NewEnv(cost.PointRange(64)).Bind("v", cost.PointRange(0.3))
	l := filtered("v", fileScan("R", 300))
	r := fileScan("S", 200)
	j := hashJoin(l, r)
	want := model.Evaluate(j, env)
	kids := []Result{model.Evaluate(l, env), model.Evaluate(r, env)}
	got := EvaluateNode(&model.P, j, env, kids)
	if got != want {
		t.Errorf("EvaluateNode = %+v, want %+v", got, want)
	}
}

func TestModuleReadTime(t *testing.T) {
	p := DefaultParams()
	// 16,000 nodes/second at 128 bytes and 2 MB/s (§6).
	if got := p.ModuleReadTime(16000); got < 1.02 || got > 1.03 {
		t.Errorf("ModuleReadTime(16000) = %g, want ≈1.024", got)
	}
	if p.ModuleBytes(10) != 1280 {
		t.Error("ModuleBytes misbehaves")
	}
}

func TestLabelRendering(t *testing.T) {
	cases := []struct {
		node *Node
		want string
	}{
		{fileScan("R", 10), "File-Scan R"},
		{filterBtree("R", "a", "v", 10), "?v"},
		{&Node{Op: FilterBtreeScan, Rel: "R", Attr: "a", SelAttr: "R.a", FixedSel: 0.3, BaseCard: 1, RowBytes: 512}, "sel=0.3"},
		{&Node{Op: Filter, SelAttr: "R.a", FixedSel: 0.5, RowBytes: 512, Children: []*Node{fileScan("R", 1)}}, "sel=0.5"},
		{&Node{Op: IndexJoin, Rel: "S", Attr: "j", LeftAttr: "R.j", RightAttr: "S.j", SelAttr: "S.a", Var: "w",
			EdgeSel: 0.1, BaseCard: 5, RowBytes: 1024, Children: []*Node{fileScan("R", 1)}}, "residual"},
	}
	for i, tc := range cases {
		if got := tc.node.Format(); !strings.Contains(got, tc.want) {
			t.Errorf("case %d: %q does not contain %q", i, got, tc.want)
		}
	}
}
