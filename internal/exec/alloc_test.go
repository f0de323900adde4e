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
// chain under a sort at selectivity 0.2 and 1.0. Everything a run drops
// is drawn from a pooled scratch that earlier runs filled, so a run
// allocates only what the caller keeps: the names behind the join
// schemas, and the two buffers that grow with the result — the root
// Sort's, one allocation per doubling from minBatch, and the result
// join's slab, one per chunk. The bound is
//
//	6 + 2·⌈log2(result rows / minBatch + 1)⌉ + result rows / slabRows
//
// — nothing for the rows the run reads and drops, nothing per row or per
// page. The runs measure 3 and 14 allocations (30 and 52 when every run
// allocated its own frame, build buffers, vectors, tables and chunks); the
// constant leaves room for a run among the twenty that finds the pool
// emptied, as two garbage collections in a row empty it.
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
		rows, _, _, err := db.Run(root, b)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, _, err := db.Run(root, b); err != nil {
				t.Fatal(err)
			}
		})
		bound := 6 + 2*bits.Len(uint(len(rows)/minBatch)) + len(rows)/slabRows
		t.Logf("selectivity %.1f: %d rows read, %d returned, %.0f allocs (bound %d)", sel, read, len(rows), allocs, bound)
		if int(allocs) > bound {
			t.Errorf("selectivity %.1f: %.0f allocs, want <= %d", sel, allocs, bound)
		}
	}
}

// TestRunBytes pins what a run of the sorted chain at selectivity 1.0
// allocates, in bytes, without predictions. Run returns the joins' rows
// as built, in the root Sort's own buffer, so no byte goes to copying the
// result or to a slice that holds it, and every buffer the run drops comes
// from the pooled scratch: the run measures 63.6 KB, the result's rows,
// their headers and the join schemas, and the bound leaves it 9 % of
// headroom. Allocating the frame, build buffers, input vectors, hash
// tables and intermediate slab chunks afresh measured 194 KB; with a Go
// map per hash table, 209 KB.
func TestRunBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := workload.New(11)
	db := testDB(t, w)
	root, _ := sortedChain(w)
	b := bindings.NewBindings(64)
	b.BindSelectivity("v", 1.0)
	// One P from the first run on, as testing.AllocsPerRun runs: a run on
	// another P than the last one misses the scratch that run put back,
	// and one run in twenty allocating its own adds 11 %.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rows, _, _, err := db.Run(root, b)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, _, _, err := db.Run(root, b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	const bound = 69_500
	t.Logf("%d rows returned, %d B per run (bound %d)", len(rows), perRun, bound)
	if perRun > bound {
		t.Errorf("%d B per run, want <= %d", perRun, bound)
	}
}
