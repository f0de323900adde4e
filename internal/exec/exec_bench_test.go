package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/storage"
	"dynplan/internal/workload"
)

func benchDB(b *testing.B) (*workload.Workload, *DB) {
	b.Helper()
	w := workload.New(11)
	store := w.LoadStore()
	idx, err := w.BuildIndexes(store)
	if err != nil {
		b.Fatal(err)
	}
	return w, &DB{Catalog: w.Catalog, Store: store, Indexes: idx, Acc: &storage.Accountant{}}
}

// BenchmarkJoinAlgorithms compares the three join implementations over
// identical inputs.
func BenchmarkJoinAlgorithms(b *testing.B) {
	w, db := benchDB(b)
	r1 := w.Catalog.MustRelation("R1")
	r2 := w.Catalog.MustRelation("R2")
	binds := bindings.NewBindings(64)
	scan1 := &physical.Node{Op: physical.FileScan, Rel: "R1", BaseCard: r1.Cardinality, RowBytes: 512}
	scan2 := &physical.Node{Op: physical.FileScan, Rel: "R2", BaseCard: r2.Cardinality, RowBytes: 512}
	edgeSel := 0.002

	plans := map[string]*physical.Node{
		"hash-join": {Op: physical.HashJoin, LeftAttr: "R1.jh", RightAttr: "R2.jl",
			EdgeSel: edgeSel, RowBytes: 1024, Children: []*physical.Node{scan1, scan2}},
		"merge-join": {Op: physical.MergeJoin, LeftAttr: "R1.jh", RightAttr: "R2.jl",
			EdgeSel: edgeSel, RowBytes: 1024, Children: []*physical.Node{
				{Op: physical.Sort, Attr: "R1.jh", RowBytes: 512, Children: []*physical.Node{scan1}},
				{Op: physical.Sort, Attr: "R2.jl", RowBytes: 512, Children: []*physical.Node{scan2}},
			}},
		"index-join": {Op: physical.IndexJoin, Rel: "R2", Attr: "jl",
			LeftAttr: "R1.jh", RightAttr: "R2.jl", EdgeSel: edgeSel,
			BaseCard: r2.Cardinality, RowBytes: 1024, Children: []*physical.Node{scan1}},
	}
	for name, p := range plans {
		b.Run(name, func(b *testing.B) {
			rows := 0
			for b.Loop() {
				out, _, err := db.Run(p, binds)
				if err != nil {
					b.Fatal(err)
				}
				rows = len(out)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkScans compares the access paths at a moderate selectivity.
func BenchmarkScans(b *testing.B) {
	w, db := benchDB(b)
	rel := w.Catalog.MustRelation("R5")
	binds := bindings.NewBindings(64)
	binds.BindSelectivity("v", 0.2)

	plans := map[string]*physical.Node{
		"file-scan+filter": {Op: physical.Filter, SelAttr: "R5.a", Var: "v", RowBytes: 512,
			Children: []*physical.Node{
				{Op: physical.FileScan, Rel: "R5", BaseCard: rel.Cardinality, RowBytes: 512},
			}},
		"filter-btree-scan": {Op: physical.FilterBtreeScan, Rel: "R5", Attr: "a",
			SelAttr: "R5.a", Var: "v", BaseCard: rel.Cardinality, RowBytes: 512},
	}
	for name, p := range plans {
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				if _, _, err := db.Run(p, binds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExternalSort exercises the Sort operator with spill charging.
func BenchmarkExternalSort(b *testing.B) {
	w, db := benchDB(b)
	rel := w.Catalog.MustRelation("R5")
	binds := bindings.NewBindings(8) // tiny memory forces spill accounting
	srt := &physical.Node{Op: physical.Sort, Attr: "R5.jh", RowBytes: 512,
		Children: []*physical.Node{
			{Op: physical.FileScan, Rel: "R5", BaseCard: rel.Cardinality, RowBytes: 512},
		}}
	for b.Loop() {
		if _, _, err := db.Run(srt, binds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortEnforcer times the Sort enforcer's kernel, sortRows, on 10²,
// 10³ and 10⁴ shuffled rows whose keys are distinct or drawn from eight
// values. Every iteration first restores the shuffled order.
func BenchmarkSortEnforcer(b *testing.B) {
	for _, keys := range []struct {
		name   string
		domain int64 // 0: every key distinct
	}{{"distinct", 0}, {"duplicates", 8}} {
		for _, n := range []int{100, 1000, 10000} {
			rng := rand.New(rand.NewSource(int64(n)))
			input := make([]storage.Row, n)
			for i := range input {
				k := int64(i)
				if keys.domain > 0 {
					k = rng.Int63n(keys.domain)
				}
				input[i] = storage.Row{k, int64(i)}
			}
			rng.Shuffle(n, func(i, j int) { input[i], input[j] = input[j], input[i] })
			rows := make([]storage.Row, n)
			b.Run(fmt.Sprintf("%s/%d", keys.name, n), func(b *testing.B) {
				for b.Loop() {
					copy(rows, input)
					sortRows(rows, 0)
				}
			})
		}
	}
}
