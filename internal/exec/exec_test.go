package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/storage"
	"dynplan/internal/workload"
)

// testDB builds an executable database over the experiment workload.
func testDB(t *testing.T, w *workload.Workload) *DB {
	t.Helper()
	store := w.LoadStore()
	idx, err := w.BuildIndexes(store)
	if err != nil {
		t.Fatal(err)
	}
	return &DB{Catalog: w.Catalog, Store: store, Indexes: idx, Acc: &storage.Accountant{}}
}

// pollEvery is how many protocol calls of a polling operator may pass
// between two inspections of the context: every NextBatch call polls.
const pollEvery = 1

// Next steps a built plan one row at a time — a one-row NextBatch — for
// tests that observe the stream row by row.
func (o *opIter) Next() (storage.Row, bool, error) {
	var one [1]storage.Row
	n, err := o.NextBatch(one[:])
	if err != nil || n == 0 {
		return nil, false, err
	}
	return one[0], true, nil
}

// concat is a join result row built by hand.
func concat(a, b storage.Row) storage.Row {
	return append(append(make(storage.Row, 0, len(a)+len(b)), a...), b...)
}

// normalize renders a result as a canonical multiset string, reordering
// columns alphabetically so plans with different join orders compare
// equal.
func normalize(rows []storage.Row, schema Schema) string {
	cols := append([]string(nil), schema...)
	sort.Strings(cols)
	perm := make([]int, len(cols))
	for i, c := range cols {
		j, err := schema.Index(c)
		if err != nil {
			panic(err)
		}
		perm[i] = j
	}
	ss := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]int64, len(perm))
		for k, j := range perm {
			vals[k] = r[j]
		}
		ss[i] = fmt.Sprint(vals)
	}
	sort.Strings(ss)
	return strings.Join(ss, ";")
}

// reference computes the expected result of an n-relation chain query by
// brute force: filter each relation, then nested-loop join the chain.
func reference(w *workload.Workload, db *DB, n int, b *bindings.Bindings) string {
	type rowset struct {
		schema Schema
		rows   []storage.Row
	}
	var cur rowset
	for i := 1; i <= n; i++ {
		rel := w.Catalog.MustRelation(fmt.Sprintf("R%d", i))
		table, err := db.Store.Table(rel.Name)
		if err != nil {
			panic(err)
		}
		sel := b.Sel[fmt.Sprintf("v%d", i)]
		limit := sel * float64(rel.MustAttribute(workload.SelAttr).DomainSize)
		aIdx := rel.AttrIndex(workload.SelAttr)
		var schema Schema
		for _, a := range rel.Attrs {
			schema = append(schema, a.QualifiedName())
		}
		var filtered []storage.Row
		var acc storage.Accountant
		table.Scan(&acc, func(r storage.Row) bool {
			if float64(r[aIdx]) < limit {
				filtered = append(filtered, r)
			}
			return true
		})
		if i == 1 {
			cur = rowset{schema: schema, rows: filtered}
			continue
		}
		// Join cur with the new relation on R(i-1).jh = Ri.jl.
		lcol, err := cur.schema.Index(fmt.Sprintf("R%d.%s", i-1, workload.JoinHi))
		if err != nil {
			panic(err)
		}
		rcol := rel.AttrIndex(workload.JoinLo)
		var joined []storage.Row
		for _, l := range cur.rows {
			for _, r := range filtered {
				if l[lcol] == r[rcol] {
					joined = append(joined, concat(l, r))
				}
			}
		}
		cur = rowset{schema: append(cur.schema, schema...), rows: joined}
	}
	return normalize(cur.rows, cur.schema)
}

func chainBindings(n int, rng *rand.Rand) *bindings.Bindings {
	b := bindings.NewBindings(16 + rng.Float64()*96)
	for i := 1; i <= n; i++ {
		b.BindSelectivity(fmt.Sprintf("v%d", i), rng.Float64())
	}
	return b
}

// TestStaticPlansMatchReference executes static plans for the paper
// queries against the nested-loop reference.
func TestStaticPlansMatchReference(t *testing.T) {
	w := workload.New(3)
	db := testDB(t, w)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4} {
		q := w.Query(n)
		res, err := runtimeopt.OptimizeStatic(q, search.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			b := chainBindings(n, rng)
			rows, schema, err := db.Run(res.Plan, b)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if got, want := normalize(rows, schema), reference(w, db, n, b); got != want {
				t.Fatalf("n=%d trial %d: static plan result differs from reference", n, trial)
			}
		}
	}
}

// TestAllDynamicAlternativesAgree is the semantic heart of dynamic plans:
// every alternative linked by choose-plan operators computes the same
// result. We activate the dynamic plan across many bindings (selecting
// different alternatives) and compare every chosen plan's output.
func TestAllDynamicAlternativesAgree(t *testing.T) {
	w := workload.New(4)
	db := testDB(t, w)
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3} {
		q := w.Query(n)
		res, err := runtimeopt.OptimizeDynamic(q, search.Config{}, true)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := plan.NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
		if err != nil {
			t.Fatal(err)
		}
		// One fixed binding decides the *data* (same expected result);
		// different activation bindings pick different plans. To compare
		// results we must execute all chosen plans under the SAME data
		// bindings, so here the chosen plan varies via activation
		// bindings while execution uses those same bindings, and each
		// result is compared with the reference for those bindings.
		distinctPlans := map[string]bool{}
		for trial := 0; trial < 12; trial++ {
			b := chainBindings(n, rng)
			rep, err := mod.Activate(b, plan.StartupOptions{})
			if err != nil {
				t.Fatal(err)
			}
			distinctPlans[rep.Chosen.Format()] = true
			rows, schema, err := db.Run(rep.Chosen, b)
			if err != nil {
				t.Fatalf("n=%d: %v\nplan:\n%s", n, err, rep.Chosen.Format())
			}
			if got, want := normalize(rows, schema), reference(w, db, n, b); got != want {
				t.Fatalf("n=%d trial %d: chosen plan result differs from reference\nplan:\n%s",
					n, trial, rep.Chosen.Format())
			}
		}
		if n > 1 && len(distinctPlans) < 2 {
			t.Logf("n=%d: only %d distinct plans chosen across 12 bindings", n, len(distinctPlans))
		}
	}
}

// TestEveryAlternativeExecutes walks a dynamic plan and executes every
// alternative of the top choose-plan under one binding, checking they all
// agree — including alternatives the cost model would never pick.
func TestEveryAlternativeExecutes(t *testing.T) {
	w := workload.New(5)
	db := testDB(t, w)
	q := w.Query(2)
	res, err := runtimeopt.OptimizeDynamic(q, search.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Op != physical.ChoosePlan {
		t.Skip("root is not a choose-plan")
	}
	b := bindings.NewBindings(64)
	b.BindSelectivity("v1", 0.5)
	b.BindSelectivity("v2", 0.5)
	want := reference(w, db, 2, b)

	model := physicalModel()
	var resolveAll func(n *physical.Node) *physical.Node
	resolveAll = func(n *physical.Node) *physical.Node {
		if n.Op == physical.ChoosePlan {
			return resolveAll(n.Children[0])
		}
		clone := *n
		clone.Children = make([]*physical.Node, len(n.Children))
		for i, c := range n.Children {
			clone.Children[i] = resolveAll(c)
		}
		return &clone
	}
	_ = model
	for i, alt := range res.Plan.Children {
		exe := resolveAll(alt)
		rows, schema, err := db.Run(exe, b)
		if err != nil {
			t.Fatalf("alternative %d: %v\n%s", i, err, exe.Format())
		}
		if got := normalize(rows, schema); got != want {
			t.Fatalf("alternative %d computes a different result\n%s", i, exe.Format())
		}
	}
}

func physicalModel() *physical.Model {
	return physical.NewModel(physical.DefaultParams())
}

// TestScanEquivalence: file scan, B-tree scan + filter, and
// filter-B-tree-scan retrieve the same rows.
func TestScanEquivalence(t *testing.T) {
	w := workload.New(6)
	db := testDB(t, w)
	rel := w.Catalog.MustRelation("R1")
	b := bindings.NewBindings(64)
	b.BindSelectivity("v", 0.35)

	fileScan := &physical.Node{Op: physical.FileScan, Rel: "R1", BaseCard: rel.Cardinality, RowBytes: 512}
	filterFile := &physical.Node{Op: physical.Filter, SelAttr: "R1.a", Var: "v", RowBytes: 512,
		Children: []*physical.Node{fileScan}}
	btree := &physical.Node{Op: physical.BtreeScan, Rel: "R1", Attr: "a", BaseCard: rel.Cardinality, RowBytes: 512}
	filterBtree := &physical.Node{Op: physical.Filter, SelAttr: "R1.a", Var: "v", RowBytes: 512,
		Children: []*physical.Node{btree}}
	fbs := &physical.Node{Op: physical.FilterBtreeScan, Rel: "R1", Attr: "a", SelAttr: "R1.a", Var: "v",
		BaseCard: rel.Cardinality, RowBytes: 512}

	var results []string
	for _, p := range []*physical.Node{filterFile, filterBtree, fbs} {
		rows, schema, err := db.Run(p, b)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, normalize(rows, schema))
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Error("scan methods disagree on the result")
	}
}

// TestBtreeScanDeliversOrder: B-tree scans stream rows in key order.
func TestBtreeScanDeliversOrder(t *testing.T) {
	w := workload.New(7)
	db := testDB(t, w)
	rel := w.Catalog.MustRelation("R2")
	btree := &physical.Node{Op: physical.BtreeScan, Rel: "R2", Attr: "a", BaseCard: rel.Cardinality, RowBytes: 512}
	rows, schema, err := db.Run(btree, bindings.NewBindings(64))
	if err != nil {
		t.Fatal(err)
	}
	col, _ := schema.Index("R2.a")
	for i := 1; i < len(rows); i++ {
		if rows[i-1][col] > rows[i][col] {
			t.Fatal("B-tree scan output not sorted")
		}
	}
	if len(rows) != rel.Cardinality {
		t.Errorf("B-tree scan returned %d rows, want %d", len(rows), rel.Cardinality)
	}
}

// TestJoinAlgorithmEquivalence: hash, merge, and index joins of the same
// inputs agree.
func TestJoinAlgorithmEquivalence(t *testing.T) {
	w := workload.New(8)
	db := testDB(t, w)
	r1 := w.Catalog.MustRelation("R1")
	r2 := w.Catalog.MustRelation("R2")
	b := bindings.NewBindings(64)

	scan1 := &physical.Node{Op: physical.FileScan, Rel: "R1", BaseCard: r1.Cardinality, RowBytes: 512}
	scan2 := &physical.Node{Op: physical.FileScan, Rel: "R2", BaseCard: r2.Cardinality, RowBytes: 512}
	edgeSel := 1.0 / 300

	hash := &physical.Node{Op: physical.HashJoin, LeftAttr: "R1.jh", RightAttr: "R2.jl",
		EdgeSel: edgeSel, RowBytes: 1024, Children: []*physical.Node{scan1, scan2}}
	merge := &physical.Node{Op: physical.MergeJoin, LeftAttr: "R1.jh", RightAttr: "R2.jl",
		EdgeSel: edgeSel, RowBytes: 1024, Children: []*physical.Node{
			{Op: physical.Sort, Attr: "R1.jh", RowBytes: 512, Children: []*physical.Node{scan1}},
			{Op: physical.Sort, Attr: "R2.jl", RowBytes: 512, Children: []*physical.Node{scan2}},
		}}
	index := &physical.Node{Op: physical.IndexJoin, Rel: "R2", Attr: "jl",
		LeftAttr: "R1.jh", RightAttr: "R2.jl", EdgeSel: edgeSel,
		BaseCard: r2.Cardinality, RowBytes: 1024, Children: []*physical.Node{scan1}}

	var results []string
	var counts []int
	for _, p := range []*physical.Node{hash, merge, index} {
		rows, schema, err := db.Run(p, b)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, normalize(rows, schema))
		counts = append(counts, len(rows))
	}
	if results[0] != results[1] {
		t.Errorf("hash vs merge join disagree (%d vs %d rows)", counts[0], counts[1])
	}
	if results[0] != results[2] {
		t.Errorf("hash vs index join disagree (%d vs %d rows)", counts[0], counts[2])
	}
	if counts[0] == 0 {
		t.Error("join produced no rows; test data too sparse to be meaningful")
	}
}

// TestMergeJoinDetectsUnsortedInput: feeding unsorted inputs must fail
// loudly, not silently drop rows.
func TestMergeJoinDetectsUnsortedInput(t *testing.T) {
	w := workload.New(9)
	db := testDB(t, w)
	r1 := w.Catalog.MustRelation("R1")
	r2 := w.Catalog.MustRelation("R2")
	scan1 := &physical.Node{Op: physical.FileScan, Rel: "R1", BaseCard: r1.Cardinality, RowBytes: 512}
	scan2 := &physical.Node{Op: physical.FileScan, Rel: "R2", BaseCard: r2.Cardinality, RowBytes: 512}
	merge := &physical.Node{Op: physical.MergeJoin, LeftAttr: "R1.jh", RightAttr: "R2.jl",
		EdgeSel: 0.01, RowBytes: 1024, Children: []*physical.Node{scan1, scan2}}
	_, _, err := db.Run(merge, bindings.NewBindings(64))
	if err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Errorf("unsorted merge join input: err = %v", err)
	}
}

func TestSortOperator(t *testing.T) {
	w := workload.New(10)
	db := testDB(t, w)
	rel := w.Catalog.MustRelation("R3")
	scan := &physical.Node{Op: physical.FileScan, Rel: "R3", BaseCard: rel.Cardinality, RowBytes: 512}
	srt := &physical.Node{Op: physical.Sort, Attr: "R3.jh", RowBytes: 512, Children: []*physical.Node{scan}}
	rows, schema, err := db.Run(srt, bindings.NewBindings(64))
	if err != nil {
		t.Fatal(err)
	}
	col, _ := schema.Index("R3.jh")
	for i := 1; i < len(rows); i++ {
		if rows[i-1][col] > rows[i][col] {
			t.Fatal("sort output not sorted")
		}
	}
	if len(rows) != rel.Cardinality {
		t.Errorf("sort changed row count: %d vs %d", len(rows), rel.Cardinality)
	}
}

func TestExecutionErrors(t *testing.T) {
	w := workload.New(11)
	db := testDB(t, w)
	b := bindings.NewBindings(64)

	// Unresolved choose-plan.
	scan := &physical.Node{Op: physical.FileScan, Rel: "R1", BaseCard: 1, RowBytes: 512}
	cp := &physical.Node{Op: physical.ChoosePlan, RowBytes: 512, Children: []*physical.Node{scan, scan}}
	if _, _, err := db.Run(cp, b); err == nil || !strings.Contains(err.Error(), "Choose-Plan") {
		t.Errorf("choose-plan execution: %v", err)
	}
	// Unknown relation.
	bad := &physical.Node{Op: physical.FileScan, Rel: "nope", BaseCard: 1, RowBytes: 512}
	if _, _, err := db.Run(bad, b); err == nil {
		t.Error("unknown relation accepted")
	}
	// Missing index.
	noIdx := &physical.Node{Op: physical.BtreeScan, Rel: "R1", Attr: "zzz", BaseCard: 1, RowBytes: 512}
	if _, _, err := db.Run(noIdx, b); err == nil {
		t.Error("missing index accepted")
	}
	// Unbound host variable.
	f := &physical.Node{Op: physical.Filter, SelAttr: "R1.a", Var: "ghost", RowBytes: 512,
		Children: []*physical.Node{scan}}
	if _, _, err := db.Run(f, b); err == nil {
		t.Error("unbound variable accepted")
	}
	// Unqualified predicate attribute.
	f2 := &physical.Node{Op: physical.Filter, SelAttr: "noqual", Var: "v", RowBytes: 512,
		Children: []*physical.Node{scan}}
	b2 := bindings.NewBindings(64)
	b2.BindSelectivity("v", 0.5)
	if _, _, err := db.Run(f2, b2); err == nil {
		t.Error("unqualified predicate attribute accepted")
	}
	// Unknown operator.
	if _, _, err := db.Run(&physical.Node{Op: physical.Op(88), RowBytes: 512}, b); err == nil {
		t.Error("unknown operator accepted")
	}
}

// TestAccountingShapes: the accountant must reflect the access-path
// asymmetry the cost model charges for.
func TestAccountingShapes(t *testing.T) {
	w := workload.New(12)
	db := testDB(t, w)
	rel := w.Catalog.MustRelation("R1")
	b := bindings.NewBindings(64)
	b.BindSelectivity("v", 0.3)

	run := func(p *physical.Node) *storage.Accountant {
		acc := &storage.Accountant{}
		db2 := &DB{Catalog: db.Catalog, Store: db.Store, Indexes: db.Indexes, Acc: acc}
		if _, _, err := db2.Run(p, b); err != nil {
			t.Fatal(err)
		}
		return acc
	}

	scan := &physical.Node{Op: physical.FileScan, Rel: "R1", BaseCard: rel.Cardinality, RowBytes: 512}
	accScan := run(scan)
	if accScan.SeqPageReads() != int64(rel.Pages()) || accScan.RandPageReads() != 0 {
		t.Errorf("file scan account: %s (pages %d)", accScan, rel.Pages())
	}

	fbs := &physical.Node{Op: physical.FilterBtreeScan, Rel: "R1", Attr: "a", SelAttr: "R1.a", Var: "v",
		BaseCard: rel.Cardinality, RowBytes: 512}
	accFbs := run(fbs)
	if accFbs.SeqPageReads() != 0 || accFbs.RandPageReads() == 0 {
		t.Errorf("filter-b-tree-scan account: %s", accFbs)
	}
	// Roughly sel × cardinality random fetches.
	approx := float64(rel.Cardinality) * 0.3
	if got := float64(accFbs.RandPageReads()); got < approx*0.5 || got > approx*1.5 {
		t.Errorf("index fetches %g, expected ≈%g", got, approx)
	}
}

// TestHashJoinSpillAccounting: tiny memory triggers the Grace charge.
func TestHashJoinSpillAccounting(t *testing.T) {
	w := workload.New(13)
	db := testDB(t, w)
	r1 := w.Catalog.MustRelation("R1")
	r2 := w.Catalog.MustRelation("R2")
	scan1 := &physical.Node{Op: physical.FileScan, Rel: "R1", BaseCard: r1.Cardinality, RowBytes: 512}
	scan2 := &physical.Node{Op: physical.FileScan, Rel: "R2", BaseCard: r2.Cardinality, RowBytes: 512}
	join := &physical.Node{Op: physical.HashJoin, LeftAttr: "R1.jh", RightAttr: "R2.jl",
		EdgeSel: 0.01, RowBytes: 1024, Children: []*physical.Node{scan1, scan2}}

	run := func(mem float64) int64 {
		acc := &storage.Accountant{}
		db2 := &DB{Catalog: db.Catalog, Store: db.Store, Indexes: db.Indexes, Acc: acc}
		if _, _, err := db2.Run(join, bindings.NewBindings(mem)); err != nil {
			t.Fatal(err)
		}
		return acc.PageWrites()
	}
	if w := run(2); w == 0 {
		t.Error("no spill writes with 2 pages of memory")
	}
	if w := run(100000); w != 0 {
		t.Errorf("spill writes (%d) with abundant memory", w)
	}
}

func TestSchemaIndex(t *testing.T) {
	s := Schema{"R.a", "R.b"}
	if i, err := s.Index("R.b"); err != nil || i != 1 {
		t.Errorf("Index = %d, %v", i, err)
	}
	if _, err := s.Index("missing"); err == nil {
		t.Error("missing column accepted")
	}
}
