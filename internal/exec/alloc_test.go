package exec

import (
	"math/bits"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/workload"
)

// TestRunAllocations pins what a run allocates, on a 3-relation hash-join
// chain under a sort at selectivity 0.2 and 1.0. The bound is
//
//	16 + 6·⌈log2(rows read + 1)⌉ + result rows / slabRows
//
// — a constant for setting the plan up (one frame slab per kind of
// decorator, iterator and join schema, the hash tables, and the first
// allocation of every growing buffer), one allocation per
// doubling of each buffer that grows (the drains' row headers, the joins'
// input vectors and output slabs), and one per further slab chunk. Nothing
// is allocated per row or per page, so the same bound holds at both
// selectivities though the result grows seventyfold. The runs measure 40
// and 67 allocations, 17 fewer than before the per-run frame; the
// constant came down from 32 to 16 and keeps the margin it had.
func TestRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := workload.New(11)
	db := testDB(t, w)
	read := 0
	scan := func(rel string) *physical.Node {
		card := w.Catalog.MustRelation(rel).Cardinality
		read += card
		return &physical.Node{Op: physical.Filter, SelAttr: rel + ".a", Var: "v", RowBytes: 512,
			Children: []*physical.Node{{Op: physical.FileScan, Rel: rel, BaseCard: card, RowBytes: 512}}}
	}
	join := func(l, r *physical.Node, la, ra string) *physical.Node {
		return &physical.Node{Op: physical.HashJoin, LeftAttr: la, RightAttr: ra, RowBytes: 1024,
			Children: []*physical.Node{l, r}}
	}
	root := &physical.Node{Op: physical.Sort, Attr: "R1.a", RowBytes: 1536, Children: []*physical.Node{
		join(join(scan("R1"), scan("R2"), "R1.jh", "R2.jl"), scan("R3"), "R2.jh", "R3.jl"),
	}}
	for _, sel := range []float64{0.2, 1.0} {
		b := bindings.NewBindings(64)
		b.BindSelectivity("v", sel)
		rows, _, err := db.Run(root, b)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := db.Run(root, b); err != nil {
				t.Fatal(err)
			}
		})
		bound := 16 + 6*bits.Len(uint(read)) + len(rows)/slabRows
		t.Logf("selectivity %.1f: %d rows read, %d returned, %.0f allocs (bound %d)", sel, read, len(rows), allocs, bound)
		if int(allocs) > bound {
			t.Errorf("selectivity %.1f: %.0f allocs, want <= %d", sel, allocs, bound)
		}
	}
}
