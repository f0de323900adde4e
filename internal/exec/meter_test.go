package exec

import (
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
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

func TestMeterCollectsPerOperatorCounters(t *testing.T) {
	w := workload.New(21)
	db := testDB(t, w)
	db.Obs = obs.NewCollector()
	root, hash, srt, scan1, scan2 := meterPlan(w)

	rows, _, err := db.Run(root, bindings.NewBindings(64))
	if err != nil {
		t.Fatal(err)
	}
	tree := db.Obs.Tree(root)
	if tree == nil {
		t.Fatal("enabled collector produced no stats tree")
	}
	if tree.NodeCount() != root.CountNodes() {
		t.Errorf("stats tree %d nodes, plan %d", tree.NodeCount(), root.CountNodes())
	}

	join := db.Obs.StatsFor(hash)
	if join.Rows != int64(len(rows)) {
		t.Errorf("join rows %d != result rows %d", join.Rows, len(rows))
	}
	if join.Opens != 1 {
		t.Errorf("join opened %d times", join.Opens)
	}
	if join.NextCalls != join.Rows+1 {
		t.Errorf("join next calls %d, rows %d (want rows+1)", join.NextCalls, join.Rows)
	}
	if join.MemBytes == 0 {
		t.Error("hash join reported no build-side memory")
	}
	if join.WallNanos <= 0 {
		t.Error("join accumulated no wall time")
	}

	if s := db.Obs.StatsFor(srt); s.MemBytes == 0 {
		t.Error("sort reported no workspace memory")
	}

	// Inclusive accounting: the root's page reads must cover both scans'.
	s1, s2 := db.Obs.StatsFor(scan1), db.Obs.StatsFor(scan2)
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

func TestMeterAbsorbedFaults(t *testing.T) {
	w := workload.New(22)
	db := testDB(t, w)
	db.Obs = obs.NewCollector()
	db.Faults = storage.NewInjector(storage.FaultConfig{
		Seed: 5, TransientRate: 0.2, Persistence: 1, ReadRetries: 3,
	})
	rel := w.Catalog.MustRelation("R1")
	scan := &physical.Node{Op: physical.FileScan, Rel: "R1", BaseCard: rel.Cardinality, RowBytes: 512}
	if _, _, err := db.Run(scan, bindings.NewBindings(64)); err != nil {
		t.Fatal(err)
	}
	got := db.Obs.StatsFor(scan).FaultsAbsorbed
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
	if _, _, err := db.Run(root, bindings.NewBindings(64)); err != nil {
		t.Fatal(err)
	}
	if db.Obs.Tree(root) != nil {
		t.Error("disabled collector returned a stats tree")
	}
}

// TestMeterResetBetweenRuns pins the per-execution window: counters from
// an earlier run must not leak into the next run's fresh collector.
func TestMeterResetBetweenRuns(t *testing.T) {
	w := workload.New(24)
	db := testDB(t, w)
	db.Obs = obs.NewCollector()
	root, hash, _, _, _ := meterPlan(w)
	if _, _, err := db.Run(root, bindings.NewBindings(64)); err != nil {
		t.Fatal(err)
	}
	first := *db.Obs.StatsFor(hash)
	db.Obs = obs.NewCollector()
	if _, _, err := db.Run(root, bindings.NewBindings(64)); err != nil {
		t.Fatal(err)
	}
	second := *db.Obs.StatsFor(hash)
	if second.Opens != first.Opens || second.Rows != first.Rows {
		t.Errorf("second run on a fresh collector: %+v vs first %+v", second, first)
	}
}
