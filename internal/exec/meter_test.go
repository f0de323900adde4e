package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/logical"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/storage"
	"dynplan/internal/workload"
)

// meterPlan builds hash(R1 ⋈ sort(R2)) so the metered tree contains both
// a buffering join and a buffering sort.
func meterPlan(w *workload.Workload) (root, hash, srt, scan1, scan2 *physical.Node) {
	r1 := w.Catalog.MustRelation("R1")
	r2 := w.Catalog.MustRelation("R2")
	scan1 = &physical.Node{Op: physical.FileScan, Rel: "R1", BaseCard: r1.Cardinality, RowBytes: 512}
	scan2 = &physical.Node{Op: physical.FileScan, Rel: "R2", BaseCard: r2.Cardinality, RowBytes: 512}
	srt = &physical.Node{Op: physical.Sort, Attr: "R2.jl", RowBytes: 512, Children: []*physical.Node{scan2}}
	hash = &physical.Node{Op: physical.HashJoin, LeftAttr: "R1.jh", RightAttr: "R2.jl",
		EdgeSel: 1.0 / 300, RowBytes: 1024, Children: []*physical.Node{scan1, srt}}
	return hash, hash, srt, scan1, scan2
}

// postOrder appends root's operators in post-order, the order of the
// stats slab Run returns.
func postOrder(root *physical.Node, out []*physical.Node) []*physical.Node {
	for _, c := range root.Children {
		out = postOrder(c, out)
	}
	return append(out, root)
}

// statsFor returns the counters Run metered for n, an operator of root.
func statsFor(stats []obs.PlanStats, root, n *physical.Node) *obs.Counters {
	return &stats[slices.Index(postOrder(root, nil), n)].Counters
}

func TestMeterCollectsPerOperatorCounters(t *testing.T) {
	w := workload.New(21)
	db := testDB(t, w)
	db.Meter = true
	root, hash, srt, scan1, scan2 := meterPlan(w)

	rows, _, stats, err := db.Run(root, bindings.NewBindings(64))
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil {
		t.Fatal("metered run returned no stats tree")
	}
	if len(stats) != root.CountNodes() {
		t.Errorf("stats tree %d nodes, plan %d", len(stats), root.CountNodes())
	}

	join := statsFor(stats, root, hash)
	if join.Rows != int64(len(rows)) {
		t.Errorf("join rows %d != result rows %d", join.Rows, len(rows))
	}
	if join.Opens != 1 {
		t.Errorf("join opened %d times", join.Opens)
	}
	// NextCalls counts protocol calls, which are batches: at least one
	// vector and the end-of-stream call, far fewer than one per row.
	if join.Rows < minBatch || join.NextCalls < 2 || join.NextCalls > join.Rows/minBatch+1 {
		t.Errorf("join next calls %d for %d rows: want batches (2 … rows/%d+1)", join.NextCalls, join.Rows, minBatch)
	}
	if join.MemBytes == 0 {
		t.Error("hash join reported no build-side memory")
	}
	if join.WallNanos <= 0 {
		t.Error("join accumulated no wall time")
	}

	if s := statsFor(stats, root, srt); s.MemBytes == 0 {
		t.Error("sort reported no workspace memory")
	}

	// Inclusive accounting: the root's page reads must cover both scans'.
	s1, s2 := statsFor(stats, root, scan1), statsFor(stats, root, scan2)
	leafPages := s1.SeqPageReads + s2.SeqPageReads
	if leafPages == 0 {
		t.Error("file scans accounted no sequential page reads")
	}
	if join.SeqPageReads < leafPages {
		t.Errorf("root seq reads %d not inclusive of leaves' %d", join.SeqPageReads, leafPages)
	}
	// And the root's account matches the execution-wide accountant.
	if join.SeqPageReads != db.Acc.SeqPageReads() || join.TupleOps != db.Acc.TupleOps() {
		t.Errorf("root counters (%d seq, %d tuples) != accountant (%d, %d)",
			join.SeqPageReads, join.TupleOps, db.Acc.SeqPageReads(), db.Acc.TupleOps())
	}
}

// TestMeteredTreeMirrorsPlanShape runs (R1 ⋈ R2) ⋈ R3 metered: the stats
// slab holds one entry per operator in post-order, labelled as the plan
// labels it, root last, and its Children pointers wire the plan's shape
// with every entry an input of exactly one other but the root.
func TestMeteredTreeMirrorsPlanShape(t *testing.T) {
	w := workload.New(21)
	db := testDB(t, w)
	db.Meter = true
	scan := func(rel string) *physical.Node {
		return &physical.Node{Op: physical.FileScan, Rel: rel, BaseCard: w.Catalog.MustRelation(rel).Cardinality, RowBytes: 512}
	}
	r, s, tt := scan("R1"), scan("R2"), scan("R3")
	j1 := &physical.Node{Op: physical.HashJoin, LeftAttr: "R1.jh", RightAttr: "R2.jl", RowBytes: 1024,
		Children: []*physical.Node{r, s}}
	root := &physical.Node{Op: physical.HashJoin, LeftAttr: "R2.jh", RightAttr: "R3.jl", RowBytes: 1536,
		Children: []*physical.Node{j1, tt}}

	rows, _, stats, err := db.Run(root, bindings.NewBindings(64))
	if err != nil {
		t.Fatal(err)
	}
	order := postOrder(root, nil)
	if len(stats) != len(order) {
		t.Fatalf("stats slab has %d entries, plan %d operators", len(stats), len(order))
	}
	parents := make(map[*obs.PlanStats]int)
	for i, n := range order {
		st := &stats[i]
		if st.Op != n.Op.String() || st.Label != n.Label() || st.Rel != n.Rel {
			t.Errorf("entry %d is %q %q %q, want %q %q %q", i, st.Op, st.Label, st.Rel, n.Op, n.Label(), n.Rel)
		}
		if len(st.Children) != len(n.Children) {
			t.Errorf("entry %d has %d children, operator %d", i, len(st.Children), len(n.Children))
		}
		for _, c := range st.Children {
			parents[c]++
		}
	}
	for i := range stats[:len(stats)-1] {
		if parents[&stats[i]] != 1 {
			t.Errorf("entry %d is an input of %d operators, want 1", i, parents[&stats[i]])
		}
	}
	// Shape: root joins (j1, R3); j1 joins (R1, R2).
	tree := &stats[len(stats)-1]
	if len(tree.Children) != 2 || len(tree.Children[0].Children) != 2 || parents[tree] != 0 {
		t.Fatalf("stats tree does not mirror the plan shape: %+v", tree)
	}
	if tree.Counters.Rows != int64(len(rows)) {
		t.Errorf("root rows = %d, want %d", tree.Counters.Rows, len(rows))
	}
	if got := tree.Children[0].Counters.MemBytes; got == 0 {
		t.Error("j1 reported no build-side memory")
	}
	if got, want := tree.Children[0].Children[0].Counters.Rows, int64(r.BaseCard); got != want {
		t.Errorf("scan R1 rows = %d, want %d", got, want)
	}
	if tree.Counters.SeqPageReads != db.Acc.SeqPageReads() {
		t.Errorf("root seq reads %d != accountant %d", tree.Counters.SeqPageReads, db.Acc.SeqPageReads())
	}
}

func TestMeterAbsorbedFaults(t *testing.T) {
	w := workload.New(22)
	db := testDB(t, w)
	db.Meter = true
	db.Faults = storage.NewInjector(storage.FaultConfig{
		Seed: 5, TransientRate: 0.2, Persistence: 1, ReadRetries: 3,
	})
	rel := w.Catalog.MustRelation("R1")
	scan := &physical.Node{Op: physical.FileScan, Rel: "R1", BaseCard: rel.Cardinality, RowBytes: 512}
	_, _, stats, err := db.Run(scan, bindings.NewBindings(64))
	if err != nil {
		t.Fatal(err)
	}
	got := stats[0].Counters.FaultsAbsorbed
	want := db.Faults.Stats().Absorbed
	if want == 0 {
		t.Skip("injector absorbed no faults at this seed/rate")
	}
	if got != want {
		t.Errorf("meter absorbed %d faults, injector reports %d", got, want)
	}
}

func TestMeterNotInstalledWhenDisabled(t *testing.T) {
	w := workload.New(23)
	db := testDB(t, w)
	root, _, _, _, _ := meterPlan(w)
	_, _, stats, err := db.Run(root, bindings.NewBindings(64))
	if err != nil {
		t.Fatal(err)
	}
	if stats != nil {
		t.Error("unmetered run returned a stats tree")
	}
}

// TestUnmeteredOperatorsCarryNoCounters pins the switch at the decorator:
// unmetered, an operator's counter pointer is nil, the disabled fast path;
// metered, Build meters even outside Run, where no frame was sized.
func TestUnmeteredOperatorsCarryNoCounters(t *testing.T) {
	w := workload.New(23)
	db := testDB(t, w)
	root, _, _, _, _ := meterPlan(w)
	b := bindings.NewBindings(64)
	it, _, err := db.Build(root, b)
	if err != nil {
		t.Fatal(err)
	}
	if it.c != nil {
		t.Error("unmetered operator carries counters")
	}
	db.Meter = true
	if it, _, err = db.Build(root, b); err != nil {
		t.Fatal(err)
	}
	if it.c == nil {
		t.Error("metered operator carries no counters")
	}
}

// emptyIter is an operator that produces no rows.
type emptyIter struct{}

func (emptyIter) Open() error                    { return nil }
func (emptyIter) NextBatch([]int32) (int, error) { return 0, nil }
func (emptyIter) Close() error                   { return nil }

// TestUnmeteredOperatorAllocatesNothing pins the zero-overhead contract:
// an unmetered operator's protocol calls perform no allocation.
func TestUnmeteredOperatorAllocatesNothing(t *testing.T) {
	op := &opIter{db: &DB{Acc: &storage.Accountant{}}, inner: emptyIter{}, node: &physical.Node{Op: physical.FileScan, Rel: "R"}}
	var dst [4]int32
	allocs := testing.AllocsPerRun(1000, func() {
		if op.Open() != nil || op.Close() != nil {
			t.Fatal("unreachable")
		}
		if n, err := op.NextBatch(dst[:]); n != 0 || err != nil {
			t.Fatal("unreachable")
		}
	})
	if allocs != 0 {
		t.Errorf("unmetered operator allocated %.1f times per call round, want 0", allocs)
	}
}

// TestMeteredRunAllocations pins what metering adds to a run: the stats
// slab, the slab of their Children and the buffer behind their labels,
// three allocations whatever the plan's size — nothing per operator. It
// runs a 2- and a 4-relation chain with metering off and on.
func TestMeteredRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := workload.New(11)
	db := testDB(t, w)
	var extra []float64
	for _, n := range []int{2, 4} {
		root, b := staticPlan(t, w, n), midBindings(n)
		run := func(meter bool) float64 {
			db.Meter = meter
			return testing.AllocsPerRun(20, func() {
				if _, _, _, err := db.Run(root, b); err != nil {
					t.Fatal(err)
				}
			})
		}
		off, on := run(false), run(true)
		t.Logf("%d relations, %d operators: %.0f allocs unmetered, %.0f metered", n, len(postOrder(root, nil)), off, on)
		extra = append(extra, on-off)
	}
	if extra[0] != extra[1] {
		t.Errorf("metering adds %.0f allocs to the 2-relation chain and %.0f to the 4-relation one, want the same", extra[0], extra[1])
	}
}

// TestMeterResetBetweenRuns pins the per-execution window: counters from
// an earlier run must not leak into the next run's fresh stats.
func TestMeterResetBetweenRuns(t *testing.T) {
	w := workload.New(24)
	db := testDB(t, w)
	db.Meter = true
	root, hash, _, _, _ := meterPlan(w)
	_, _, stats, err := db.Run(root, bindings.NewBindings(64))
	if err != nil {
		t.Fatal(err)
	}
	first := *statsFor(stats, root, hash)
	if _, _, stats, err = db.Run(root, bindings.NewBindings(64)); err != nil {
		t.Fatal(err)
	}
	second := *statsFor(stats, root, hash)
	if second.Opens != first.Opens || second.Rows != first.Rows {
		t.Errorf("second run's stats: %+v vs first %+v", second, first)
	}
}

// TestExecutedPlansAreTrees pins the invariant the stats tree rests on: a
// plan start-up resolved shares no subplan, so metering every operator
// once per occurrence meters every node once, and walks of the stats tree
// need no visited set. It activates the dynamic module (memory uncertain)
// of every §6 chain of 2–10 relations and of stars of 3–6 under seeded
// bindings and memory, and requires every node of each chosen plan to be
// reached exactly once from its root.
func TestExecutedPlansAreTrees(t *testing.T) {
	w := workload.New(11)
	rng := rand.New(rand.NewSource(5))
	check := func(name string, q *logical.Query, n int) {
		t.Helper()
		res, err := runtimeopt.OptimizeDynamic(q, search.Config{}, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mod, err := plan.NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for draw := range 8 {
			b := chainBindings(n, rng)
			rep, err := mod.Activate(b, plan.StartupOptions{})
			if err != nil {
				t.Fatalf("%s draw %d: %v", name, draw, err)
			}
			reached := make(map[*physical.Node]int)
			var walk func(n *physical.Node)
			walk = func(n *physical.Node) {
				reached[n]++
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(rep.Chosen)
			for node, k := range reached {
				if k != 1 {
					t.Errorf("%s draw %d: %q reached %d times\n%s", name, draw, node.Label(), k, rep.Chosen.Format())
				}
			}
		}
	}
	for n := 2; n <= 10; n++ {
		check(fmt.Sprintf("chain %d", n), w.Query(n), n)
	}
	for n := 3; n <= 6; n++ {
		check(fmt.Sprintf("star %d", n), w.StarQuery(n), n)
	}
}
