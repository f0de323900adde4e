package dynplan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dynplan/internal/exec"
	"dynplan/internal/harness"
	"dynplan/internal/physical"
	"dynplan/internal/qerr"
)

// degradeJoinPlan hand-builds the two-relation Hash-Join plan the
// fault-domain tests run: under a 96-page grant it compiles to the
// symmetric streaming join with partitioned parallel file scans beneath,
// so the C1 heap pages split into per-worker fault domains whose ranges
// storage.PartitionPageRange predicts exactly.
func degradeJoinPlan() *physical.Node {
	return &physical.Node{
		Op: physical.HashJoin, LeftAttr: "C1.jh", RightAttr: "C2.jl",
		EdgeSel: 1.0 / 64, RowBytes: 1024,
		Children: []*physical.Node{
			{Op: physical.FileScan, Rel: "C1", BaseCard: 270, RowBytes: 512},
			{Op: physical.FileScan, Rel: "C2", BaseCard: 340, RowBytes: 512},
		},
	}
}

// midPageFault returns a FaultConfig poisoning exactly one heap page of
// C1 — the middle one, which lands inside a single scan partition at
// every DOP the grant can fund — so precisely one worker's fault domain
// carries the fault.
func midPageFault(t *testing.T, db *Database) (FaultConfig, int32) {
	t.Helper()
	pages, err := db.RelationPages("C1")
	if err != nil {
		t.Fatal(err)
	}
	if pages < 4 {
		t.Fatalf("C1 has only %d pages; partition targeting needs more", pages)
	}
	mid := int32(pages / 2)
	return FaultConfig{
		Seed:         11,
		TargetRel:    "C1",
		TargetPageLo: mid,
		TargetPageHi: mid + 1,
	}, mid
}

// TestWorkerRetryAbsorbsTransientFault is the tentpole acceptance
// scenario: a transient fault confined to one worker's partition is
// absorbed inside that worker's own fault domain — the query completes
// with rows and accountant books identical to the fault-free serial run,
// no whole-query retry fires, and the ladder never steps. The control
// run proves the isolation is load-bearing: with worker retry disabled,
// the same single fault escapes the worker and reaches the ladder.
func TestWorkerRetryAbsorbsTransientFault(t *testing.T) {
	sys, _ := resilChainSystem(t, 2)
	db := resilDatabase(t, sys)
	root := degradeJoinPlan()
	b := Bindings{MemoryPages: 96}
	ref, err := db.Exec(context.Background(), root, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(canonical(ref), "\n")
	cfg, mid := midPageFault(t, db)
	cfg.TransientRate = 1 // the one targeted page always carries the fault

	// Control: worker retry off. The single transient fault must escape
	// the worker and reach the degradation ladder — otherwise the main run
	// proves nothing.
	db.InjectFaults(cfg)
	ctl, err := db.Exec(context.Background(), root, b, ExecOptions{
		Parallel:    true,
		WorkerRetry: &WorkerRetryPolicy{MaxAttempts: 1},
	})
	if err != nil || len(ctl.Degrade) == 0 || ctl.Degrade[0].Class != "transient-io" {
		t.Fatalf("control run with isolation disabled: err=%v, want the injected transient fault to reach the ladder", err)
	}

	// Main run on a fresh injector (the control healed the page): the
	// defaults absorb the fault inside the worker.
	db.InjectFaults(cfg)
	defer db.faults.Store(nil)
	res, err := db.Exec(context.Background(), root, b, ExecOptions{Parallel: true})
	if err != nil {
		t.Fatalf("worker retry did not absorb the fault on page %d: %v", mid, err)
	}
	if got := strings.Join(canonical(res), "\n"); got != want {
		t.Error("recovered rows diverge from the fault-free serial run")
	}
	if res.SeqPageReads != ref.SeqPageReads || res.RandPageReads != ref.RandPageReads ||
		res.PageWrites != ref.PageWrites || res.TupleOps != ref.TupleOps {
		t.Errorf("recovered account (seq=%d rand=%d write=%d tuples=%d) != fault-free serial (seq=%d rand=%d write=%d tuples=%d): retry charges leaked",
			res.SeqPageReads, res.RandPageReads, res.PageWrites, res.TupleOps,
			ref.SeqPageReads, ref.RandPageReads, ref.PageWrites, ref.TupleOps)
	}
	if res.Parallel == nil || res.Parallel.DOP <= 1 {
		t.Fatalf("query did not run parallel: %+v", res.Parallel)
	}
	if res.Parallel.WorkerRetries < 1 {
		t.Errorf("WorkerRetries=%d, want ≥ 1: the fault was not absorbed by a worker retry", res.Parallel.WorkerRetries)
	}
	if res.Retries != 0 {
		t.Errorf("Retries=%d, want 0: a whole-query retry fired for a single-worker fault", res.Retries)
	}
	if len(res.Degrade) != 0 {
		t.Errorf("ladder stepped %d rungs for a fault worker retry owns: %+v", len(res.Degrade), res.Degrade)
	}
	retried := false
	for _, e := range res.Parallel.Exchanges {
		if e.WorkerRetries > 0 {
			retried = true
			if len(e.RetryBackoffNanos) != int(e.WorkerRetries) {
				t.Errorf("exchange %s: %d backoff samples for %d retries", e.Kind, len(e.RetryBackoffNanos), e.WorkerRetries)
			}
		}
	}
	if !retried {
		t.Error("no exchange carries the worker-retry account")
	}
	if inj := db.injector().Stats().Injected; inj < 1 {
		t.Errorf("injected=%d; the scenario is vacuous", inj)
	}
}

// TestWorkerRetryDeterministicBackoff pins the recovery's determinism:
// two identical runs under the same fault seed and retry policy produce
// byte-identical retry accounts — same retry counts, same nominal backoff
// nanos — because the jitter derives from (seed, worker, retry), not from
// global rand.
func TestWorkerRetryDeterministicBackoff(t *testing.T) {
	sys, _ := resilChainSystem(t, 2)
	db := resilDatabase(t, sys)
	root := degradeJoinPlan()
	b := Bindings{MemoryPages: 96}
	cfg, _ := midPageFault(t, db)
	cfg.TransientRate = 1
	pol := &WorkerRetryPolicy{MaxAttempts: 4, Backoff: time.Microsecond, JitterSeed: 99}

	account := func() string {
		db.InjectFaults(cfg)
		res, err := db.Exec(context.Background(), root, b, ExecOptions{Parallel: true, WorkerRetry: pol})
		if err != nil {
			t.Fatal(err)
		}
		if res.Parallel.WorkerRetries == 0 {
			t.Fatal("no worker retry; the determinism check is vacuous")
		}
		parts := []string{fmt.Sprintf("retries=%d", res.Parallel.WorkerRetries)}
		for _, e := range res.Parallel.Exchanges {
			parts = append(parts, fmt.Sprintf("%s|%s:%d:%v", e.Kind, e.Rel, e.WorkerRetries, e.RetryBackoffNanos))
		}
		return strings.Join(parts, "\n")
	}
	first := account()
	second := account()
	db.faults.Store(nil)
	if first != second {
		t.Errorf("retry accounts diverge across identical runs:\n%s\n--\n%s", first, second)
	}
}

// TestDegradeLadderPermanentFault walks the full ladder: a permanently
// poisoned page (capped at two injections) fails the parallel execution
// at its initial DOP, fails the halved re-run, and completes serial —
// the query survives a fault that defeats every parallel width, and the
// descent is fully accounted: two Degrade events, the "degraded" DOP
// reason, DEGRADE lines in ExplainAnalyze, and the registry rung
// counters.
func TestDegradeLadderPermanentFault(t *testing.T) {
	sys, _ := resilChainSystem(t, 2)
	db := resilDatabase(t, sys)
	db.EnableObservability()
	db.EnableObservatory()
	defer db.DisableObservatory()
	root := degradeJoinPlan()
	b := Bindings{MemoryPages: 96}
	ref, err := db.Exec(context.Background(), root, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(canonical(ref), "\n")

	cfg, mid := midPageFault(t, db)
	cfg.PermanentRate = 1
	// Two injections: one kills the run at the initial DOP, one kills the
	// halved re-run; the serial fallback then reads the page clean. This
	// models a fault that concurrency keeps re-triggering until the
	// execution narrows.
	cfg.MaxInjected = 2
	db.InjectFaults(cfg)
	defer db.faults.Store(nil)

	res, err := db.Exec(context.Background(), root, b, ExecOptions{Parallel: true})
	if err != nil {
		t.Fatalf("ladder did not carry the query past the permanent fault on page %d: %v", mid, err)
	}
	if got := strings.Join(canonical(res), "\n"); got != want {
		t.Error("degraded rows diverge from the fault-free serial run")
	}
	if res.SeqPageReads != ref.SeqPageReads || res.RandPageReads != ref.RandPageReads ||
		res.PageWrites != ref.PageWrites || res.TupleOps != ref.TupleOps {
		t.Errorf("degraded account (seq=%d rand=%d write=%d tuples=%d) != fault-free serial (seq=%d rand=%d write=%d tuples=%d)",
			res.SeqPageReads, res.RandPageReads, res.PageWrites, res.TupleOps,
			ref.SeqPageReads, ref.RandPageReads, ref.PageWrites, ref.TupleOps)
	}
	if res.Parallel == nil || res.Parallel.DOP != 1 || res.Parallel.Reason != "degraded" {
		t.Fatalf("final run: %+v, want DOP 1 with reason \"degraded\"", res.Parallel)
	}
	if len(res.Degrade) != 2 {
		t.Fatalf("ladder took %d steps, want 2 (dop-halve, serial-fallback): %+v", len(res.Degrade), res.Degrade)
	}
	first, last := res.Degrade[0], res.Degrade[1]
	if first.Rung != "dop-halve" || first.FromDOP <= first.ToDOP {
		t.Errorf("first rung %+v, want a dop-halve stepping down", first)
	}
	if last.Rung != "serial-fallback" || last.ToDOP != 1 || last.FromDOP != first.ToDOP {
		t.Errorf("last rung %+v, want serial-fallback from %d to 1", last, first.ToDOP)
	}
	for _, e := range res.Degrade {
		if e.Class != "permanent-io" {
			t.Errorf("rung %s classified %q, want permanent-io", e.Rung, e.Class)
		}
	}
	out := res.ExplainAnalyze(DefaultParams())
	if !strings.Contains(out, "DEGRADE dop-halve") || !strings.Contains(out, "DEGRADE serial-fallback") {
		t.Errorf("EXPLAIN ANALYZE missing the DEGRADE trace:\n%s", out)
	}
	snap := db.MetricsSnapshot()
	if snap.DopDegrades != 1 || snap.SerialFallbacks != 1 {
		t.Errorf("registry rungs: dop_degrades=%d serial_fallbacks=%d, want 1/1", snap.DopDegrades, snap.SerialFallbacks)
	}
	rec := res.RunRecordFor("ladder", "C1 ⋈ C2", DefaultParams())
	if len(rec.Degrade) != 2 || rec.Metrics["degrade-steps"] != 2 {
		t.Errorf("run record carries %d degrade events (metric %v), want 2", len(rec.Degrade), rec.Metrics["degrade-steps"])
	}
}

// TestWorkerBackoffCancellation is the cancellation satellite: a context
// cancel landing while a worker sleeps its retry backoff must interrupt
// the wait immediately (the backoff here is far longer than the test
// budget), surface a typed cancellation, release the admission ticket
// and memory grant exactly once, and leak neither iterators nor
// goroutines.
func TestWorkerBackoffCancellation(t *testing.T) {
	sys, _ := resilChainSystem(t, 2)
	db := resilDatabase(t, sys)
	lc := exec.NewLeakChecker()
	db.wrap = lc.Wrap
	db.SetGovernor(GovernorConfig{TotalPages: 1024, MaxConcurrent: 4})
	defer db.ClearGovernor()
	root := degradeJoinPlan()
	b := Bindings{MemoryPages: 96}
	cfg, _ := midPageFault(t, db)
	cfg.TransientRate = 1
	cfg.Persistence = 1 << 20 // the fault never heals: the worker keeps backing off
	db.InjectFaults(cfg)
	defer db.faults.Store(nil)
	// A backoff far beyond the test budget: only the cancel can end it.
	pol := &WorkerRetryPolicy{MaxAttempts: 1 << 20, Backoff: time.Hour, MaxBackoff: time.Hour}

	before := harness.StableGoroutines()
	for _, governed := range []bool{false, true} {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := db.Exec(ctx, root, b, ExecOptions{
			Parallel: true, Governed: governed, WorkerRetry: pol,
		})
		cancel()
		elapsed := time.Since(start)
		if !IsCanceled(err) {
			t.Fatalf("governed=%v: err=%v, want a typed cancellation", governed, err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("governed=%v: cancellation took %v; the backoff sleep did not interrupt", governed, elapsed)
		}
	}
	if leaked := lc.Leaked(); len(leaked) > 0 {
		t.Errorf("leaked iterators after backoff cancellation: %v", leaked)
	}
	if after := harness.StableGoroutines(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d: a backing-off worker outlived its query", before, after)
	}
	gs := db.GovernorStats()
	if gs.Broker.OutstandingPages != 0 {
		t.Errorf("outstanding grant pages = %v after cancellation, want 0", gs.Broker.OutstandingPages)
	}
	if gs.InFlight != 0 {
		t.Errorf("in-flight admissions = %d after cancellation, want 0", gs.InFlight)
	}
}

// TestWorkerFaultChaosSoak is the fault-matrix soak: governed, resilient,
// parallel clients hammer one Database under seeded transient-fault
// injection, once per seed x fault-rate cell — the default (7, 0.05) plus
// the {7, 23} x {0.02, 0.08} matrix. Every execution must reproduce the
// fault-free digest whatever rung it completed on, and afterwards the
// books must balance exactly: no leaked iterators, no stray goroutines,
// zero outstanding grant pages. A red cell reproduces alone with
// -run 'TestWorkerFaultChaosSoak/seed=<s>/rate=<r>'.
func TestWorkerFaultChaosSoak(t *testing.T) {
	cells := []struct {
		seed int64
		rate float64
	}{{7, 0.05}, {7, 0.02}, {7, 0.08}, {23, 0.02}, {23, 0.08}}
	for _, c := range cells {
		t.Run(fmt.Sprintf("seed=%d/rate=%g", c.seed, c.rate), func(t *testing.T) {
			workerFaultSoak(t, c.seed, c.rate)
		})
	}
}

func workerFaultSoak(t *testing.T, seed int64, rate float64) {
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
	db.SetGovernor(GovernorConfig{TotalPages: 512, MaxConcurrent: 6, MaxQueued: 64, QueueTimeout: time.Minute})
	defer db.ClearGovernor()
	db.EnableObservatory()
	defer db.DisableObservatory()

	pol := func(s int64) RetryPolicy {
		return RetryPolicy{MaxAttempts: 80, Backoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond, JitterSeed: s}
	}
	mixes := []struct {
		name     string
		opts     ExecOptions
		sel, mem float64
	}{
		{"gov-par-4", ExecOptions{Governed: true, Resilient: true, Parallel: true, MaxDOP: 4}, 0.4, 96},
		{"gov-par-2", ExecOptions{Governed: true, Resilient: true, Parallel: true, MaxDOP: 2}, 0.6, 64},
		{"par-4", ExecOptions{Resilient: true, Parallel: true, MaxDOP: 4}, 0.5, 96},
		{"serial", ExecOptions{Governed: true, Resilient: true}, 0.5, 64},
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
			Run: func(ctx context.Context, s int64) (string, error) {
				opts := m.opts
				opts.Policy = pol(s)
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

	before := harness.StableGoroutines()
	db.InjectFaults(FaultConfig{Seed: seed, TransientRate: rate})
	defer db.faults.Store(nil)

	rep, err := harness.Soak(context.Background(), harness.ChaosConfig{
		Seed:       seed,
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
	stats := db.injector().Stats()
	t.Logf("%s; seed=%d rate=%v; faults injected: %d", rep, seed, rate, stats.Injected)
	if rate > 0 && stats.Injected == 0 {
		t.Error("no faults were injected; the soak is vacuous")
	}
	if leaked := lc.Leaked(); len(leaked) > 0 {
		t.Errorf("leaked iterators: %v", leaked)
	}
	if after := harness.StableGoroutines(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d", before, after)
	}
	gs := db.GovernorStats()
	if gs.Broker.OutstandingPages != 0 {
		t.Errorf("outstanding grant pages = %v after soak, want 0: a degraded or retried query leaked its grant", gs.Broker.OutstandingPages)
	}
	if gs.InFlight != 0 || gs.Queued != 0 {
		t.Errorf("governor occupancy after soak: in-flight=%d queued=%d, want 0/0", gs.InFlight, gs.Queued)
	}
	snap := db.MetricsSnapshot()
	if snap == nil {
		t.Fatal("observatory disabled itself during the soak")
	}
	t.Logf("observatory: %d parallel queries, %d worker retries, %d dop degrades, %d serial fallbacks",
		snap.ParallelQueries, snap.WorkerRetries, snap.DopDegrades, snap.SerialFallbacks)
	if snap.WorkerRetries > 0 && snap.WorkerRetryBackoff.Count == 0 {
		t.Error("worker retries recorded but the backoff histogram is empty")
	}
}

// rungCase is one escalated failure handed to degradeRung at a DOP, and
// the rung the ladder should take ("" when it declines) with the DOP it
// steps to.
type rungCase struct {
	name string
	err  error
	dop  int
	rung string
	to   int
}

func checkRungs(t *testing.T, cases []rungCase) {
	t.Helper()
	for _, tc := range cases {
		ev, ok := degradeRung(tc.err, tc.dop, 3)
		if ok != (tc.rung != "") {
			t.Errorf("%s: degradeRung(_, %d) took a rung = %v, want %v", tc.name, tc.dop, ok, !ok)
			continue
		}
		if !ok {
			continue
		}
		if ev.Rung != tc.rung || ev.FromDOP != tc.dop || ev.ToDOP != tc.to || ev.Attempt != 3 {
			t.Errorf("%s: got %+v, want rung %s %d→%d at attempt 3", tc.name, ev, tc.rung, tc.dop, tc.to)
		}
		if ev.Class != qerr.Class(tc.err) || ev.Error != tc.err.Error() {
			t.Errorf("%s: event carries class %q, error %q", tc.name, ev.Class, ev.Error)
		}
	}
}

// TestDegradeRungDescent pins the ladder's rungs: it halves the DOP down to
// a serial fallback and has no rung below serial.
func TestDegradeRungDescent(t *testing.T) {
	fault := qerr.AtRel("file-scan", "R1", fmt.Errorf("%w: %w", qerr.ErrFaultInjected, qerr.ErrPermanentIO))
	checkRungs(t, []rungCase{
		{"halve 8", fault, 8, "dop-halve", 4},
		{"halve 4", fault, 4, "dop-halve", 2},
		{"serial fallback", fault, 2, "serial-fallback", 1},
		{"odd width", fault, 3, "serial-fallback", 1},
		{"below serial", fault, 1, "", 0},
	})
	if ev, _ := degradeRung(fault, 8, 1); ev.Class != "permanent-io" {
		t.Errorf("injected permanent fault classed %q, want permanent-io", ev.Class)
	}
}

// TestDegradeRungDeclines pins the ownership boundaries: the ladder answers
// escalated execution faults — notably I/O — and declines the ones other
// stages own. Memory pressure belongs to the retry stage's grant
// downgrade, cardinality and stall faults to re-optimization, cancellation
// and admission verdicts to nobody.
func TestDegradeRungDeclines(t *testing.T) {
	checkRungs(t, []rungCase{
		{"transient past worker retry", qerr.ErrTransientIO, 8, "dop-halve", 4},
		{"operator panic", qerr.ErrOperatorPanic, 8, "dop-halve", 4},
		{"unclassified", errors.New("unclassified substrate failure"), 8, "dop-halve", 4},
		{"canceled", qerr.ErrCanceled, 8, "", 0},
		{"wrapped cancel", qerr.At("probe", qerr.ErrCanceled), 8, "", 0},
		{"deadline", qerr.ErrDeadlineExceeded, 8, "", 0},
		{"admission", qerr.ErrAdmission, 8, "", 0},
		{"circuit open", qerr.ErrCircuitOpen, 8, "", 0},
		{"insufficient memory", qerr.ErrInsufficientMemory, 8, "", 0},
		{"cardinality", qerr.ErrCardinalityViolation, 8, "", 0},
		{"no progress", qerr.ErrNoProgress, 8, "", 0},
		{"nil", nil, 8, "", 0},
	})
}
