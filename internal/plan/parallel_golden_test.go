package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/workload"
)

const parallelGoldenPath = "testdata/parallel_golden.json"

// parallelRow pins one plan's serial cost and its parallel cost at DOP 2,
// 3 and 4 under one binding, by bit pattern.
type parallelRow struct {
	Serial string `json:"serial"`
	DOP2   string `json:"dop2"`
	DOP3   string `json:"dop3"`
	DOP4   string `json:"dop4"`
}

// parallelCase is one plan and the point it is priced at.
type parallelCase struct {
	root *physical.Node
	b    *bindings.Bindings
}

// parallelCases returns the plans the parallel golden pins: the chosen
// plan of each paper query under 20 draws, and hand-built plans covering
// the parallel model's special cases — a Filter pushed into File-Scan
// partitions, a hash join over a filtered scan, Sort, Index-Join, and a
// Temp-Scan input — under a grid of bindings.
func parallelCases(t *testing.T) map[string]parallelCase {
	t.Helper()
	cases := make(map[string]parallelCase)
	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		mod := paperModule(t, n)
		gen := bindings.NewGenerator(int64(3000+n), workload.Variables(n), true)
		for i, b := range gen.Draw(20) {
			rep, err := mod.Activate(b, StartupOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cases[fmt.Sprintf("relations=%d/draw%02d", n, i)] = parallelCase{rep.Chosen, b}
		}
	}

	scan := func(rel string, card int) *physical.Node {
		return &physical.Node{Op: physical.FileScan, Rel: rel, BaseCard: card, RowBytes: 512}
	}
	filter := func(v string, c *physical.Node) *physical.Node {
		return &physical.Node{Op: physical.Filter, SelAttr: c.Rel + ".a", Var: v, RowBytes: c.RowBytes, Children: []*physical.Node{c}}
	}
	join := func(op physical.Op, l, r *physical.Node) *physical.Node {
		return &physical.Node{Op: op, LeftAttr: "L.j", RightAttr: "R.j", EdgeSel: 0.002,
			RowBytes: l.RowBytes + r.RowBytes, Children: []*physical.Node{l, r}}
	}
	sort := func(attr string, c *physical.Node) *physical.Node {
		return &physical.Node{Op: physical.Sort, Attr: attr, RowBytes: c.RowBytes, Children: []*physical.Node{c}}
	}
	temp := &physical.Node{Op: physical.TempScan, Rel: "reopt_R3", BaseCard: 640, RowBytes: 512}
	btree := &physical.Node{Op: physical.FilterBtreeScan, Rel: "R2", Attr: "a", SelAttr: "R2.a", Var: "v2", BaseCard: 1500, RowBytes: 512}
	plans := map[string]*physical.Node{
		"filter-filescan":   filter("v1", scan("R1", 2000)),
		"hashjoin-filtered": join(physical.HashJoin, filter("v1", scan("R1", 2000)), scan("R2", 120)),
		"hashjoin-large":    join(physical.HashJoin, scan("R2", 1500), filter("v1", scan("R1", 2000))),
		"sort-filescan":     sort("R1.a", filter("v1", scan("R1", 2000))),
		"sort-hashjoin":     sort("R1.a", join(physical.HashJoin, filter("v1", scan("R1", 400)), btree)),
		"sort-btree":        sort("R2.j", btree),
		"indexjoin": {Op: physical.IndexJoin, Rel: "R2", Attr: "j", SelAttr: "R2.a", Var: "v2",
			LeftAttr: "R1.j", RightAttr: "R2.j", EdgeSel: 1.0 / 300, BaseCard: 1500, RowBytes: 1024,
			Children: []*physical.Node{filter("v1", scan("R1", 2000))}},
		"hashjoin-temp":  join(physical.HashJoin, temp, filter("v2", scan("R2", 1500))),
		"mergejoin-temp": join(physical.MergeJoin, sort("R3.j", temp), sort("R2.j", btree)),
		"filter-temp":    filter("v1", temp),
	}
	for name, root := range plans {
		for _, sel := range []float64{0.02, 0.35, 0.9} {
			for _, mem := range []float64{16, 64, 112} {
				b := bindings.NewBindings(mem).BindSelectivity("v1", sel).BindSelectivity("v2", 1-sel)
				cases[fmt.Sprintf("hand/%s/sel=%g/mem=%g", name, sel, mem)] = parallelCase{root, b}
			}
		}
	}
	return cases
}

// parallelCosts prices c serially and at DOP 2, 3 and 4: one sweep, then
// one parallel pass per DOP over its cardinalities.
func parallelCosts(t *testing.T, name string, c parallelCase) parallelRow {
	params := physical.DefaultParams()
	prog, err := physical.Lower(c.root)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	e := prog.At(&params, c.b)
	return parallelRow{
		Serial: bits(e.Cost[len(e.Cost)-1]),
		DOP2:   bits(prog.ParallelCost(&params, &e, 2)),
		DOP3:   bits(prog.ParallelCost(&params, &e, 3)),
		DOP4:   bits(prog.ParallelCost(&params, &e, 4)),
	}
}

// TestParallelGolden pins the parallel cost model, the DOP gate's input:
// the table in testdata was recorded (with -update) by the map-memoized
// interval evaluator the parallel pass replaced, and every plan must
// price bit for bit as it did then.
func TestParallelGolden(t *testing.T) {
	got := make(map[string]parallelRow)
	for name, c := range parallelCases(t) {
		got[name] = parallelCosts(t, name, c)
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parallelGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(parallelGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]parallelRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d plans, this build priced %d", len(want), len(got))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
