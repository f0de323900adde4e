package dynplan

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"dynplan/internal/exec"
	"dynplan/internal/harness"
	"dynplan/internal/physical"
)

// TestParallelDigestEquality is the tentpole acceptance scenario: across
// the chain-query workload, every parallel execution — at every DOP the
// grant can fund — returns exactly the rows of the serial execution, and
// charges exactly the serial I/O account. Parallelism redistributes work
// across goroutines; it must never change what work is done.
func TestParallelDigestEquality(t *testing.T) {
	parallelRuns, exchanges := 0, 0
	for _, n := range []int{1, 2, 3, 4} {
		sys, q := resilChainSystem(t, n)
		p, err := sys.OptimizeStatic(q)
		if err != nil {
			t.Fatal(err)
		}
		db := resilDatabase(t, sys)
		for _, mem := range []float64{24, 48, 96} {
			for _, sel := range []float64{0.2, 0.6} {
				b := resilBindings(n, sel, mem)
				ref, err := db.Exec(context.Background(), p, b, ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want := strings.Join(canonical(ref), "\n")
				for maxDOP := 1; maxDOP <= 4; maxDOP++ {
					name := fmt.Sprintf("chain-%d/mem-%v/sel-%v/maxdop-%d", n, mem, sel, maxDOP)
					res, err := db.Exec(context.Background(), p, b,
						ExecOptions{Parallel: true, MaxDOP: maxDOP})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := strings.Join(canonical(res), "\n"); got != want {
						t.Errorf("%s: parallel rows diverge from serial", name)
					}
					if res.Parallel == nil {
						t.Fatalf("%s: no parallel account on a Parallel execution", name)
					}
					ps := res.Parallel
					if ps.DOP < 1 || ps.DOP > maxDOP {
						t.Errorf("%s: DOP=%d outside [1, %d]", name, ps.DOP, maxDOP)
					}
					if ps.DOP > 1 {
						parallelRuns++
						exchanges += len(ps.Exchanges)
					}
					// The accountant-fold invariant: worker charges fold into
					// the shared account batch by batch, so the totals equal
					// the serial execution's exactly.
					if res.SeqPageReads != ref.SeqPageReads ||
						res.RandPageReads != ref.RandPageReads ||
						res.PageWrites != ref.PageWrites ||
						res.TupleOps != ref.TupleOps {
						t.Errorf("%s: account (seq=%d rand=%d write=%d tuples=%d) != serial (seq=%d rand=%d write=%d tuples=%d)",
							name, res.SeqPageReads, res.RandPageReads, res.PageWrites, res.TupleOps,
							ref.SeqPageReads, ref.RandPageReads, ref.PageWrites, ref.TupleOps)
					}
				}
			}
		}
	}
	if parallelRuns == 0 {
		t.Fatal("no execution ran with DOP > 1; the scenario is vacuous")
	}
	if exchanges == 0 {
		t.Fatal("no exchange was recorded at DOP > 1")
	}
	t.Logf("%d executions ran parallel, %d exchanges recorded", parallelRuns, exchanges)
}

// TestParallelDOPReasons pins the DOP selection: the grant funds the
// worker count (one per 16 pages, capped by MaxDOP), and the cost model
// must price the parallel plan below serial before any goroutine spawns.
func TestParallelDOPReasons(t *testing.T) {
	sys, q := resilChainSystem(t, 3)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)

	run := func(t *testing.T, pl *Plan, b Bindings, maxDOP int) *ExecResult {
		t.Helper()
		res, err := db.Exec(context.Background(), pl, b, ExecOptions{Parallel: true, MaxDOP: maxDOP})
		if err != nil {
			t.Fatal(err)
		}
		if res.Parallel == nil {
			t.Fatal("no parallel account")
		}
		return res
	}

	// A 16-page grant funds exactly one worker: serial, "grant-limited".
	res := run(t, p, resilBindings(3, 0.5, 16), 4)
	if res.Parallel.DOP != 1 || res.Parallel.Reason != "grant-limited" {
		t.Errorf("16-page grant: DOP=%d reason=%q, want 1/grant-limited",
			res.Parallel.DOP, res.Parallel.Reason)
	}
	if len(res.Parallel.Exchanges) != 0 {
		t.Errorf("serial fallback recorded %d exchanges", len(res.Parallel.Exchanges))
	}

	// A 96-page grant funds the full default DOP on a plan big enough for
	// the parallel estimate to win.
	res = run(t, p, resilBindings(3, 0.5, 96), 4)
	if res.Parallel.DOP != 4 || res.Parallel.Reason != "grant" {
		t.Errorf("96-page grant: DOP=%d reason=%q, want 4/grant",
			res.Parallel.DOP, res.Parallel.Reason)
	}
	if res.Parallel.MaxDOP != 4 || res.Parallel.GrantPages != 96 {
		t.Errorf("account: max-dop=%d grant=%v, want 4/96",
			res.Parallel.MaxDOP, res.Parallel.GrantPages)
	}

	// MaxDOP caps what the grant could otherwise fund.
	res = run(t, p, resilBindings(3, 0.5, 96), 2)
	if res.Parallel.DOP != 2 {
		t.Errorf("MaxDOP=2: DOP=%d, want 2", res.Parallel.DOP)
	}

	// A tiny relation prices below the exchange overhead: the cost gate
	// keeps it serial with reason "cost".
	tiny := New()
	tiny.MustCreateRelation("T", 3, 512, Attr{Name: "a", DomainSize: 10, BTree: true})
	tq, err := tiny.BuildQuery(QuerySpec{Relations: []RelSpec{
		{Name: "T", Pred: &Pred{Attr: "a", Variable: "v1"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := tiny.OptimizeStatic(tq)
	if err != nil {
		t.Fatal(err)
	}
	tdb := tiny.OpenDatabase()
	if err := tdb.GenerateData(17); err != nil {
		t.Fatal(err)
	}
	if err := tdb.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	tb := Bindings{Selectivities: map[string]float64{"v1": 0.9}, MemoryPages: 96}
	tres, err := tdb.Exec(context.Background(), tp, tb, ExecOptions{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if tres.Parallel.DOP != 1 || tres.Parallel.Reason != "cost" {
		t.Errorf("tiny relation: DOP=%d reason=%q, want 1/cost",
			tres.Parallel.DOP, tres.Parallel.Reason)
	}
}

// TestParallelHashJoinEquivalence runs a Hash-Join plan at DOP 2 and 4:
// the join runs serial over partitioned scans, so it returns the serial
// rows and charges the serial tuples and pages; every exchange gathers one
// scan's DOP workers, and the join itself is metered on the plan's own
// goroutine with the serial result's row count.
func TestParallelHashJoinEquivalence(t *testing.T) {
	sys, _ := resilChainSystem(t, 2)
	db := resilDatabase(t, sys)
	db.EnableObservability()
	root := &physical.Node{
		Op: physical.HashJoin, LeftAttr: "C1.jh", RightAttr: "C2.jl",
		EdgeSel: 1.0 / 64, RowBytes: 1024,
		Children: []*physical.Node{
			{Op: physical.FileScan, Rel: "C1", BaseCard: 270, RowBytes: 512},
			{Op: physical.FileScan, Rel: "C2", BaseCard: 340, RowBytes: 512},
		},
	}
	b := Bindings{MemoryPages: 96}
	ref, err := db.Exec(context.Background(), root, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("join produced no rows; the scenario is vacuous")
	}
	want := strings.Join(canonical(ref), "\n")
	for _, dop := range []int{2, 4} {
		res, err := db.Exec(context.Background(), root, b, ExecOptions{Parallel: true, MaxDOP: dop})
		if err != nil {
			t.Fatal(err)
		}
		if res.Parallel == nil || res.Parallel.DOP != dop {
			t.Fatalf("dop %d: join plan ran with %+v", dop, res.Parallel)
		}
		if strings.Join(canonical(res), "\n") != want {
			t.Errorf("dop %d: rows diverge from the serial run", dop)
		}
		if res.TupleOps != ref.TupleOps || res.SeqPageReads != ref.SeqPageReads ||
			res.RandPageReads != ref.RandPageReads || res.PageWrites != ref.PageWrites {
			t.Errorf("dop %d: account tuples=%d seq=%d rand=%d write=%d, serial %d/%d/%d/%d", dop,
				res.TupleOps, res.SeqPageReads, res.RandPageReads, res.PageWrites,
				ref.TupleOps, ref.SeqPageReads, ref.RandPageReads, ref.PageWrites)
		}
		join := res.Operators
		if join == nil || join.Op != physical.HashJoin.String() || join.Counters.Rows != int64(len(ref.Rows)) {
			t.Fatalf("dop %d: root operator %+v, want a serial Hash-Join of %d rows", dop, join, len(ref.Rows))
		}
		if len(res.Parallel.Exchanges) != len(join.Children) {
			t.Fatalf("dop %d: %d exchanges, want one per scan: %+v", dop, len(res.Parallel.Exchanges), res.Parallel.Exchanges)
		}
		for _, ex := range res.Parallel.Exchanges {
			if ex.Kind != "gather" && ex.Kind != "ordered-gather" {
				t.Errorf("dop %d: exchange kind %q over %s(%s), want a scan gather", dop, ex.Kind, ex.Op, ex.Rel)
			}
			if len(ex.Workers) != dop {
				t.Errorf("dop %d: exchange over %s has %d workers", dop, ex.Rel, len(ex.Workers))
			}
			for _, in := range join.Children {
				if in.Rel == ex.Rel && in.Counters.Rows != ex.Rows() {
					t.Errorf("dop %d: %s scan fed the join %d rows, its workers gathered %d", dop, ex.Rel, in.Counters.Rows, ex.Rows())
				}
			}
		}
	}
}

// TestParallelCancellationCleanliness cancels parallel executions at
// deadlines that land before, during, and after the exchanges run, and
// requires every outcome to be either the exact serial answer or a typed
// cancellation — with no leaked iterator and no goroutine outliving its
// query, which is precisely what the teardown protocol (stop channel,
// poisoned-drain, bounded waits) exists to guarantee.
func TestParallelCancellationCleanliness(t *testing.T) {
	sys, q := resilChainSystem(t, 3)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)
	lc := exec.NewLeakChecker()
	db.wrap = lc.Wrap
	b := resilBindings(3, 0.5, 96)
	ref, err := db.Exec(context.Background(), p, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(canonical(ref), "\n")

	before := harness.StableGoroutines()
	completed, canceled := 0, 0
	for round := 0; round < 3; round++ {
		for _, timeout := range []time.Duration{0, 20 * time.Microsecond,
			100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond, time.Second} {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			res, err := db.Exec(ctx, p, b, ExecOptions{Parallel: true})
			cancel()
			switch {
			case err == nil:
				completed++
				if got := strings.Join(canonical(res), "\n"); got != want {
					t.Errorf("timeout %v: completed run diverges from serial", timeout)
				}
			case IsCanceled(err):
				canceled++
			default:
				t.Errorf("timeout %v: unclassified error %v", timeout, err)
			}
		}
	}
	if completed == 0 || canceled == 0 {
		t.Fatalf("deadlines did not straddle the execution (completed=%d canceled=%d); tighten the timeouts",
			completed, canceled)
	}
	if leaked := lc.Leaked(); len(leaked) > 0 {
		t.Errorf("leaked iterators after cancellation: %v", leaked)
	}
	if after := harness.StableGoroutines(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d: an exchange worker outlived its query", before, after)
	}
}

// TestParallelChaosSoak mixes parallel and serial clients on one Database
// under seeded transient-fault injection: every execution must return the
// fault-free reference digest whatever DOP its grant funded, the retry
// loop must compose with parallel execution (a failed parallel attempt
// tears down cleanly and re-runs), and nothing may leak. CI's race job
// also runs it at -cpu 1,2,4.
func TestParallelChaosSoak(t *testing.T) {
	iterations := 20
	if testing.Short() {
		iterations = 6
	}
	sys, q := resilChainSystem(t, 3)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)
	lc := exec.NewLeakChecker()
	db.wrap = lc.Wrap
	pol := func(seed int64) RetryPolicy {
		return RetryPolicy{
			MaxAttempts: 80,
			Backoff:     100 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			JitterSeed:  seed,
		}
	}
	mixes := []struct {
		name     string
		opts     ExecOptions
		sel, mem float64
	}{
		{"serial", ExecOptions{Resilient: true}, 0.5, 64},
		{"par-4", ExecOptions{Resilient: true, Parallel: true, MaxDOP: 4}, 0.4, 96},
		{"par-2", ExecOptions{Resilient: true, Parallel: true, MaxDOP: 2}, 0.6, 64},
		{"par-grant-limited", ExecOptions{Resilient: true, Parallel: true, MaxDOP: 4}, 0.5, 24},
	}
	var queries []harness.ChaosQuery
	sawParallel := false
	for _, m := range mixes {
		b := resilBindings(3, m.sel, m.mem)
		ref, err := db.Exec(context.Background(), mod, b, m.opts)
		if err != nil {
			t.Fatalf("%s: reference run failed: %v", m.name, err)
		}
		if ref.Parallel != nil && ref.Parallel.DOP > 1 {
			sawParallel = true
		}
		m := m
		queries = append(queries, harness.ChaosQuery{
			Name:      m.name,
			Reference: strings.Join(canonical(ref), "\n"),
			Run: func(ctx context.Context, seed int64) (string, error) {
				opts := m.opts
				opts.Policy = pol(seed)
				res, err := db.Exec(ctx, mod, resilBindings(3, m.sel, m.mem), opts)
				if err != nil {
					return "", err
				}
				return strings.Join(canonical(res), "\n"), nil
			},
		})
	}
	if !sawParallel {
		t.Fatal("no mix ran with DOP > 1; the soak is vacuous")
	}

	// The observatory rides along: parallel counters and skew gauges must
	// stay race-free under the concurrent mixed load.
	db.EnableObservatory()
	defer db.DisableObservatory()

	before := harness.StableGoroutines()
	db.InjectFaults(FaultConfig{Seed: 7, TransientRate: 0.12})
	defer db.faults.Store(nil)

	rep, err := harness.Soak(context.Background(), harness.ChaosConfig{
		Seed:       3,
		Workers:    8,
		Iterations: iterations,
		Queries:    queries,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s; faults injected: %d", rep, db.injector().Stats().Injected)
	if db.injector().Stats().Injected == 0 {
		t.Error("no faults were injected; the soak is vacuous")
	}
	if leaked := lc.Leaked(); len(leaked) > 0 {
		t.Errorf("leaked iterators: %v", leaked)
	}
	if after := harness.StableGoroutines(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d", before, after)
	}
	snap := db.MetricsSnapshot()
	if snap == nil {
		t.Fatal("observatory disabled itself during the soak")
	}
	if snap.ParallelQueries == 0 {
		t.Error("observatory recorded no parallel queries despite parallel mixes")
	}
	if snap.ParallelExchanges < snap.ParallelQueries {
		t.Errorf("exchanges=%d < parallel queries=%d: exchanges went unrecorded",
			snap.ParallelExchanges, snap.ParallelQueries)
	}
	if snap.PartitionSkewMax <= 0 {
		t.Error("partition-skew gauge never moved despite parallel joins")
	}
	t.Logf("observatory: %d parallel queries, %d exchanges, max skew %.2f",
		snap.ParallelQueries, snap.ParallelExchanges, snap.PartitionSkewMax)
}

// TestParallelExplainAnalyze checks the PARALLEL section renders: the
// DOP header with the selection reason, and one line per exchange with
// per-worker row counts.
func TestParallelExplainAnalyze(t *testing.T) {
	sys, q := resilChainSystem(t, 2)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)
	db.EnableObservability()
	res, err := db.Exec(context.Background(), p, resilBindings(2, 0.5, 96),
		ExecOptions{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	out := res.ExplainAnalyze(DefaultParams())
	if !strings.Contains(out, "PARALLEL dop=") {
		t.Errorf("EXPLAIN ANALYZE missing PARALLEL header:\n%s", out)
	}
	if res.Parallel.DOP > 1 && !strings.Contains(out, "exchange ") {
		t.Errorf("EXPLAIN ANALYZE missing exchange lines at DOP %d:\n%s", res.Parallel.DOP, out)
	}
}
