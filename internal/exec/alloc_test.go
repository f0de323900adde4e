package exec

import (
	"math/bits"
	"runtime"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/workload"
)

// sortedChain is a 3-relation hash-join chain R1 ⋈ R2 ⋈ R3 under a sort
// on R1.a, every relation filtered at the selectivity bound to "v", and
// the number of rows its scans read.
func sortedChain(w *workload.Workload) (root *physical.Node, read int) {
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
	root = &physical.Node{Op: physical.Sort, Attr: "R1.a", RowBytes: 1536, Children: []*physical.Node{
		join(join(scan("R1"), scan("R2"), "R1.jh", "R2.jl"), scan("R3"), "R2.jh", "R3.jl"),
	}}
	return root, read
}

// TestRunAllocations pins what a run allocates, on a 3-relation hash-join
// chain under a sort at selectivity 0.2 and 1.0. The bound is
//
//	9 + 6·⌈log2(rows read + 1)⌉ + result rows / slabRows
//
// — a constant for setting the plan up (one frame slab per kind of
// decorator, iterator and join schema, the hash tables, and the first
// allocation of every growing buffer), one allocation per
// doubling of each buffer that grows (the drains' row headers, the joins'
// input vectors and output slabs), and one per further slab chunk. Nothing
// is allocated per row or per page, so the same bound holds at both
// selectivities though the result grows seventyfold. The runs measure 30
// and 52 allocations; the constant leaves the larger run 23 under its
// bound.
func TestRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := workload.New(11)
	db := testDB(t, w)
	root, read := sortedChain(w)
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
		bound := 9 + 6*bits.Len(uint(read)) + len(rows)/slabRows
		t.Logf("selectivity %.1f: %d rows read, %d returned, %.0f allocs (bound %d)", sel, read, len(rows), allocs, bound)
		if int(allocs) > bound {
			t.Errorf("selectivity %.1f: %.0f allocs, want <= %d", sel, allocs, bound)
		}
	}
}

// TestRunBytes pins what a run of the sorted chain at selectivity 1.0
// allocates, in bytes, without predictions. Run returns the joins' rows
// as built, in the root Sort's own buffer, so no byte goes to copying the
// result or to a slice that holds it, and the hash joins' tables are one
// []int32 each: the run measures 194 KB, and the bound leaves it 9 % of
// headroom. With a Go map per hash table the run measured 209 KB, over the
// bound; on those tables, copying the sorted headers into a slice sized
// to the sort cost 25 KB more, and also copying the 489 rows into one
// slab and draining them into a doubling slice 94 KB more.
func TestRunBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := workload.New(11)
	db := testDB(t, w)
	root, _ := sortedChain(w)
	b := bindings.NewBindings(64)
	b.BindSelectivity("v", 1.0)
	rows, _, err := db.Run(root, b)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, _, err := db.Run(root, b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	const bound = 212_000
	t.Logf("%d rows returned, %d B per run (bound %d)", len(rows), perRun, bound)
	if perRun > bound {
		t.Errorf("%d B per run, want <= %d", perRun, bound)
	}
}
