package exec

import (
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
// allocates only what the caller keeps: the names behind the schema, and
// the result's values and its row views, one exact allocation each —
// nothing for the rows the run reads and drops, nothing that grows with
// the result. Both runs measure 3 allocations; the parent of the flat
// layout measured 3 and 14 under a bound of 6 + 2·⌈log2(result rows /
// minBatch + 1)⌉ + result rows / 512, as its root Sort's buffer doubled
// and its result join's slab took a chunk per 512 rows. The constant's
// three more leave room for a run among the twenty that finds the pool
// emptied, as two garbage collections in a row empty it: such a run
// allocates its scratch afresh, 67 allocations.
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
		const bound = 3 + 3
		t.Logf("selectivity %.1f: %d rows read, %d returned, %.0f allocs (bound %d)", sel, read, len(rows), allocs, bound)
		if int(allocs) > bound {
			t.Errorf("selectivity %.1f: %.0f allocs, want <= %d", sel, allocs, bound)
		}
	}
}

// TestRunBytes pins what a run of the sorted chain at selectivity 1.0
// allocates, in bytes, without predictions. The run copies the result's
// values once, into one exact slice, hands out one row view per row and
// draws every buffer it drops from the pooled scratch: it measures
// 53.4 KB — 489 rows of 9 values (35.2 KB, 36 KiB as allocated), their
// views (11.7 KB) and the schema — and the bound leaves it 9 % of
// headroom. Returning the joins' rows as built, from slab chunks, in the
// root Sort's own buffer of row headers measured 63.6 KB; allocating the
// frame, build buffers, input vectors, hash tables and intermediate slab
// chunks afresh, 194 KB; with a Go map per hash table, 209 KB.
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
	const bound = 58_200
	t.Logf("%d rows returned, %d B per run (bound %d)", len(rows), perRun, bound)
	if perRun > bound {
		t.Errorf("%d B per run, want <= %d", perRun, bound)
	}
}
