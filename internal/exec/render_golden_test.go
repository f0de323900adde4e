package exec

import (
	"fmt"
	"testing"

	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/workload"
)

const renderGoldenPath = "testdata/render_golden.json"

// renderPlans are hand-built plans whose labels none of the other inputs
// reach: bound predicates (FixedSel) across the exponent and rounding
// cases of the selectivity's three significant digits, Index-Joins with
// and without a residual, a Temp-Scan, a shared subplan, and an operator
// outside the algebra.
func renderPlans() map[string]*physical.Node {
	tmp := &physical.Node{Op: physical.TempScan, Rel: "tmp_R2", Attr: "R2.jl", BaseCard: 417, RowBytes: 512}
	shared := &physical.Node{Op: physical.Filter, SelAttr: "R1.a", FixedSel: 0.25, RowBytes: 512,
		Children: []*physical.Node{{Op: physical.FileScan, Rel: "R1", RowBytes: 512}}}
	out := map[string]*physical.Node{
		"temp/join": {Op: physical.HashJoin, LeftAttr: "R1.jh", RightAttr: "R2.jl", RowBytes: 1024,
			Children: []*physical.Node{shared, tmp}},
		"index/plain": {Op: physical.IndexJoin, Rel: "R2", Attr: "jl", LeftAttr: "R1.jh", RightAttr: "R2.jl",
			RowBytes: 1024, Children: []*physical.Node{shared}},
		"index/fixed": {Op: physical.IndexJoin, Rel: "R2", Attr: "jl", LeftAttr: "R1.jh", RightAttr: "R2.jl",
			SelAttr: "R2.a", FixedSel: 0.5, RowBytes: 1024, Children: []*physical.Node{shared}},
		"shared/choose": {Op: physical.ChoosePlan, RowBytes: 512, Children: []*physical.Node{
			shared, {Op: physical.Sort, Attr: "R1.a", RowBytes: 512, Children: []*physical.Node{shared}}}},
		"unknown": {Op: physical.Op(200)},
	}
	for i, sel := range []float64{0, 1, 0.05, 1.0 / 3, 0.0004567, 1e-7, 0.99951, 12345.678, 2.5e21} {
		out[fmt.Sprintf("fixed/%d", i)] = &physical.Node{Op: physical.Filter, SelAttr: "R3.a", FixedSel: sel, RowBytes: 512,
			Children: []*physical.Node{{Op: physical.FilterBtreeScan, Rel: "R3", Attr: "a", SelAttr: "R3.a", FixedSel: sel, RowBytes: 512}}}
	}
	return out
}

// TestRenderGolden pins the plan renderer byte for byte: the table in
// testdata holds, per plan, obs.Digest of its Format() and, once per
// distinct digest, the Format() text itself. The plans are every paper
// module DAG for 1–10 relations (shared subplans print as "@id (shared
// …)" lines), the chosen plans of the five paper queries under the
// executor golden's 20 draws each, and every hand-built plan of the
// executor golden and of renderPlans. Refresh it only for an intended
// change of the plan text, and say so: every plan digest the
// observatory reports changes with it.
func TestRenderGolden(t *testing.T) {
	w := workload.New(11)
	got := make(map[string]string)
	record := func(name string, n *physical.Node) {
		text := n.Format()
		d := obs.Digest(text)
		got["case/"+name] = d
		got["plan/"+d] = text
	}
	for n := 1; n <= workload.MaxRelations; n++ {
		res, err := runtimeopt.OptimizeDynamic(w.Query(n), search.Config{}, true)
		if err != nil {
			t.Fatal(err)
		}
		record(fmt.Sprintf("module/relations=%d", n), res.Plan)
	}
	for _, in := range goldenInputs(t, w)[:len(workload.PaperQueries())] {
		for i, b := range in.draws {
			rep, err := in.mod.Activate(b, plan.StartupOptions{})
			if err != nil {
				t.Fatalf("%s draw %d: %v", in.name, i, err)
			}
			record(fmt.Sprintf("chosen/%s/draw%02d", in.name, i), rep.Chosen)
		}
	}
	for name, p := range goldenPlans(w) {
		record("hand/"+name, p)
	}
	for name, p := range renderPlans() {
		record("render/"+name, p)
	}
	checkGolden(t, renderGoldenPath, got)
}
