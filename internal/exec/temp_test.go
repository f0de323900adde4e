package exec

import (
	"slices"
	"strings"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/workload"
)

func TestMaterializeAndTempScan(t *testing.T) {
	w := workload.New(15)
	db := testDB(t, w)
	rel := w.Catalog.MustRelation("R1")
	b := bindings.NewBindings(64)
	b.BindSelectivity("v", 0.25)
	sub := &physical.Node{Op: physical.Filter, SelAttr: "R1.a", Var: "v", RowBytes: 512,
		Children: []*physical.Node{
			{Op: physical.FileScan, Rel: "R1", BaseCard: rel.Cardinality, RowBytes: 512},
		}}

	temp, observed, err := db.Materialize("t1", sub, b)
	if err != nil {
		t.Fatal(err)
	}
	if observed != temp.Table.NumRows() {
		t.Errorf("observed %d, temp holds %d", observed, temp.Table.NumRows())
	}
	if observed == 0 || observed == rel.Cardinality {
		t.Errorf("implausible observed cardinality %d", observed)
	}
	// Materialization charges temp writes.
	if db.Acc.PageWrites() == 0 {
		t.Error("no page writes charged for materialization")
	}

	// The temp scan returns exactly the materialized rows.
	scan := &physical.Node{Op: physical.TempScan, Rel: "t1", BaseCard: observed, RowBytes: 512}
	rows, schema, _, err := db.Run(scan, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != observed {
		t.Errorf("temp scan returned %d rows, want %d", len(rows), observed)
	}
	if len(schema) != 3 || schema[0] != "R1.a" {
		t.Errorf("temp schema = %v", schema)
	}

	// Joining a temp against a base relation works like any input.
	r2 := w.Catalog.MustRelation("R2")
	join := &physical.Node{Op: physical.HashJoin, LeftAttr: "R1.jh", RightAttr: "R2.jl",
		EdgeSel: 0.01, RowBytes: 1024, Children: []*physical.Node{
			scan,
			{Op: physical.FileScan, Rel: "R2", BaseCard: r2.Cardinality, RowBytes: 512},
		}}
	joined, jschema, _, err := db.Run(join, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(jschema) != 6 {
		t.Errorf("join schema = %v", jschema)
	}
	_ = joined
}

func TestTempScanUnknownTemp(t *testing.T) {
	w := workload.New(16)
	db := testDB(t, w)
	scan := &physical.Node{Op: physical.TempScan, Rel: "ghost", BaseCard: 1, RowBytes: 512}
	if _, _, _, err := db.Run(scan, bindings.NewBindings(64)); err == nil || !strings.Contains(err.Error(), "unknown temporary") {
		t.Errorf("unknown temp: err = %v", err)
	}
}

func TestAddTempInitializesState(t *testing.T) {
	w := workload.New(17)
	// DB with nil Acc and nil Temps: AddTemp must self-initialize.
	db := &DB{Catalog: w.Catalog, Store: w.LoadStore()}
	temp := db.AddTemp("x", Schema{"a.b"}, []int64{1, 2}, 512)
	if temp.Table.NumRows() != 2 {
		t.Errorf("temp rows = %d", temp.Table.NumRows())
	}
	if db.Acc == nil || db.Temps["x"] == nil {
		t.Error("AddTemp did not initialize DB state")
	}
}

func TestTempScanOrderPreserved(t *testing.T) {
	w := workload.New(18)
	db := testDB(t, w)
	rows := []int64{5, 3, 9, 1}
	db.AddTemp("seq", Schema{"t.k"}, slices.Clone(rows), 512)
	scan := &physical.Node{Op: physical.TempScan, Rel: "seq", BaseCard: 4, RowBytes: 512}
	got, _, _, err := db.Run(scan, bindings.NewBindings(64))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r[0] != rows[i] {
			t.Fatalf("temp scan reordered rows: %v", got)
		}
	}
}
