package exec

import (
	"fmt"
	"slices"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/storage"
	"dynplan/internal/workload"
)

// storedDigest hashes every row of the named stored tables and of every
// temporary, page by page.
func storedDigest(t *testing.T, db *DB, rels ...string) string {
	t.Helper()
	var tables []*storage.Table
	for _, rel := range rels {
		tbl, err := db.Store.Table(rel)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	for _, tmp := range db.Temps {
		tables = append(tables, tmp.Table)
	}
	var rows []storage.Row
	for _, tbl := range tables {
		for p := range tbl.NumPages() {
			rows = append(rows, tbl.Page(p)...)
		}
	}
	return digestRows(nil, rows)
}

// TestRunResultIsOwned pins Run's ownership contract: the caller owns the
// rows and the schema it returns outright. For every kind of root — the
// ones whose rows Run copies because they are stored rows (scans, a Sort
// or a Filter over one, a Temp-Scan, a parallel scan) and the ones it
// returns as built (joins, a Sort over one, a parallel join) — the test
// writes into every returned row and schema entry, then re-runs the plan:
// the re-run must return the rows of the first, and the stored tables and
// the temporary must be unchanged. A root Sort hands Run its own buffer,
// sized from the predictions when there are some, so a Sort over a scan
// and one over a join also run with every operator predicted at 600 rows;
// Run must clear the predictions once used.
func TestRunResultIsOwned(t *testing.T) {
	w := workload.New(11)
	db := testDB(t, w)
	b := bindings.NewBindings(64)
	b.BindSelectivity("v1", 0.5)
	b.BindSelectivity("v2", 0.5)
	card := func(rel string) int { return w.Catalog.MustRelation(rel).Cardinality }
	scan := func(rel string) *physical.Node {
		return &physical.Node{Op: physical.FileScan, Rel: rel, BaseCard: card(rel), RowBytes: 512}
	}
	filter := func(rel, v string, child *physical.Node) *physical.Node {
		return &physical.Node{Op: physical.Filter, SelAttr: rel + ".a", Var: v, RowBytes: 512, Children: []*physical.Node{child}}
	}
	srt := func(attr string, child *physical.Node) *physical.Node {
		return &physical.Node{Op: physical.Sort, Attr: attr, RowBytes: child.RowBytes, Children: []*physical.Node{child}}
	}
	join := func(op physical.Op, l, r *physical.Node) *physical.Node {
		return &physical.Node{Op: op, LeftAttr: "R1.jh", RightAttr: "R2.jl", RowBytes: 1024, Children: []*physical.Node{l, r}}
	}
	if _, _, err := db.Materialize("t1", filter("R1", "v1", scan("R1")), b); err != nil {
		t.Fatal(err)
	}
	hash := join(physical.HashJoin, filter("R1", "v1", scan("R1")), filter("R2", "v2", scan("R2")))
	cases := []struct {
		name   string
		root   *physical.Node
		dop    int
		built  bool // the run built the root's rows, so Run returns them uncopied
		hinted bool // every run gets predictions
	}{
		{"file-scan", scan("R1"), 1, false, false},
		{"filter/file-scan", filter("R1", "v1", scan("R1")), 1, false, false},
		{"btree-scan", &physical.Node{Op: physical.BtreeScan, Rel: "R1", Attr: "jh", BaseCard: card("R1"), RowBytes: 512}, 1, false, false},
		{"sort/file-scan", srt("R1.jh", scan("R1")), 1, false, false},
		{"temp-scan", &physical.Node{Op: physical.TempScan, Rel: "t1", RowBytes: 512}, 1, false, false},
		{"parallel/file-scan", scan("R1"), 2, false, false},
		{"hash-join", hash, 1, true, false},
		{"merge-join", join(physical.MergeJoin,
			srt("R1.jh", filter("R1", "v1", scan("R1"))), srt("R2.jl", filter("R2", "v2", scan("R2")))), 1, true, false},
		{"index-join", &physical.Node{Op: physical.IndexJoin, Rel: "R2", Attr: "jl", LeftAttr: "R1.jh", RightAttr: "R2.jl",
			BaseCard: card("R2"), RowBytes: 1024, Children: []*physical.Node{filter("R1", "v1", scan("R1"))}}, 1, true, false},
		{"sort/hash-join", srt("R2.a", hash), 1, true, false},
		{"parallel/hash-join", hash, 2, true, false},
		{"hinted/sort/file-scan", srt("R1.jh", scan("R1")), 1, false, true},
		{"hinted/sort/hash-join", srt("R2.a", hash), 1, true, true},
	}
	stored := storedDigest(t, db, "R1", "R2")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if ownsResult(c.root) != c.built {
				t.Fatalf("ownsResult = %v, want %v", !c.built, c.built)
			}
			db.Parallel = c.dop
			defer func() { db.Parallel = 0 }()
			predict := func() {
				if c.hinted {
					var n census
					db.count(c.root, &n)
					db.Cards = slices.Repeat([]float64{600}, n.ops)
				}
			}
			predict()
			rows, schema, err := db.Run(c.root, b)
			if err != nil {
				t.Fatal(err)
			}
			if db.Cards != nil {
				t.Error("Run left its predictions for the next run")
			}
			if len(rows) == 0 {
				t.Fatal("no rows: nothing to write into")
			}
			want := normalize(rows, schema)
			for _, r := range rows {
				for j := range r {
					r[j] = ^r[j]
				}
			}
			for j := range schema {
				schema[j] = fmt.Sprintf("overwritten%d", j)
			}
			predict()
			again, schema2, err := db.Run(c.root, b)
			if err != nil {
				t.Fatal(err)
			}
			if got := normalize(again, schema2); got != want {
				t.Errorf("re-run after writing into the result returned other rows (%d, first run %d)", len(again), len(rows))
			}
			if got := storedDigest(t, db, "R1", "R2"); got != stored {
				t.Error("writing into the result changed a stored table or the temporary")
			}
		})
	}
}
