package dynplan

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dynplan/internal/exec"
	"dynplan/internal/harness"
)

// TestChaosSoak is the acceptance scenario for the resource governor:
// eight client goroutines hammer one Database with a randomized query mix
// under seeded fault injection against a grant pool smaller than the
// workers' combined requests, and every admitted query must return exactly the rows of the unconstrained
// reference execution. Rejections must be typed ErrAdmission (or a
// deadline), the grant pool must drain to zero outstanding pages, no
// iterator may leak, and no goroutine may outlive the soak. Fixed seeds
// make the whole run reproducible; -short trims the iteration count, not
// the concurrency.
func TestChaosSoak(t *testing.T) {
	const (
		workers   = 8
		maxConc   = 6
		poolPages = 256.0
		minGrant  = 16.0
	)
	iterations := 25
	if testing.Short() {
		iterations = 8
	}

	sys, q := resilChainSystem(t, 3)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.ChoosePlanCount() == 0 {
		t.Fatal("soak plan has no choose-plans; the scenario is vacuous")
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)
	lc := exec.NewLeakChecker()
	db.wrap = lc.Wrap

	// Reference digests from unconstrained executions: no faults, no
	// governor, the full requested grant. canonical() normalizes row order
	// and column layout, which legitimately differ when pressure forces a
	// different choose-plan branch.
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
		sel, mem float64
	}{
		{"sel-lo/mem-hi", 0.2, 96},
		{"sel-mid/mem-mid", 0.5, 64},
		{"sel-hi/mem-lo", 0.8, 48},
	}
	var queries []harness.ChaosQuery
	for _, m := range mixes {
		ref, err := db.Exec(context.Background(), mod, resilBindings(3, m.sel, m.mem), ExecOptions{Resilient: true})
		if err != nil {
			t.Fatalf("%s: reference run failed: %v", m.name, err)
		}
		m := m
		queries = append(queries, harness.ChaosQuery{
			Name:      m.name,
			Reference: strings.Join(canonical(ref), "\n"),
			Run: func(ctx context.Context, seed int64) (string, error) {
				res, err := db.Exec(ctx, mod, resilBindings(3, m.sel, m.mem), ExecOptions{Governed: true, Resilient: true, Policy: pol(seed)})
				if err != nil {
					return "", err
				}
				return strings.Join(canonical(res), "\n"), nil
			},
		})
	}

	// The observatory rides along for the whole soak: the satellite
	// criterion is that metrics recording stays race-free under the full
	// concurrent chaos load. Enabled after the reference runs so the
	// registry tallies exactly the soak's own queries.
	db.EnableObservatory()
	defer db.DisableObservatory()

	before := harness.StableGoroutines()
	db.SetGovernor(GovernorConfig{
		TotalPages:    poolPages,
		MinGrantPages: minGrant,
		MaxConcurrent: maxConc,
		MaxQueued:     4,
		QueueTimeout:  250 * time.Millisecond,
	})
	// Transient faults only: every admitted query must recover via the
	// resilient executor; permanent-fault steering has its own tests.
	db.InjectFaults(FaultConfig{Seed: 7, TransientRate: 0.15})
	defer db.faults.Store(nil)

	rep, err := harness.Soak(context.Background(), harness.ChaosConfig{
		Seed:       1,
		Workers:    workers,
		Iterations: iterations,
		Queries:    queries,
		Rejected: func(err error) bool {
			return errors.Is(err, ErrAdmission) || IsCanceled(err)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if got := rep.Succeeded + rep.Rejected; got != workers*iterations {
		t.Errorf("accounted executions = %d, want %d", got, workers*iterations)
	}
	t.Logf("%s; faults injected: %d", rep, db.injector().Stats().Injected)
	if db.injector().Stats().Injected == 0 {
		t.Error("no faults were injected; the soak is vacuous")
	}

	// Resource invariants after the dust settles.
	if got := db.OutstandingGrantPages(); got != 0 {
		t.Errorf("outstanding grant pages = %v, want 0", got)
	}
	s := db.GovernorStats()
	if s.InFlight != 0 || s.Queued != 0 {
		t.Errorf("governor still busy: inFlight=%d queued=%d", s.InFlight, s.Queued)
	}
	if s.Admitted != s.Completed {
		t.Errorf("admitted %d != completed %d: a ticket was not released", s.Admitted, s.Completed)
	}
	// Every rejection is either a governor shed (never admitted) or a
	// deadline kill of an admitted query, so the two books must balance:
	// admitted − succeeded = rejected − sheds.
	if s.Admitted-int64(rep.Succeeded) != int64(rep.Rejected)-(s.ShedQueueFull+s.ShedTimeout) {
		t.Errorf("admission books disagree: admitted=%d succeeded=%d rejected=%d sheds=%d",
			s.Admitted, rep.Succeeded, rep.Rejected, s.ShedQueueFull+s.ShedTimeout)
	}
	if leaked := lc.Leaked(); len(leaked) > 0 {
		t.Errorf("leaked iterators: %v", leaked)
	}
	if after := harness.StableGoroutines(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d", before, after)
	}

	// Observatory accounting must agree with the harness's books: every
	// soak iteration ends as a success (a recorded query), a failed query
	// (deadline/cancel of an admitted one), or an admission shed.
	snap := db.MetricsSnapshot()
	if snap == nil {
		t.Fatal("observatory disabled itself during the soak")
	}
	if snap.Queries != int64(rep.Succeeded)+snap.Errors {
		t.Errorf("registry queries=%d, want succeeded(%d)+errors(%d)",
			snap.Queries, rep.Succeeded, snap.Errors)
	}
	if snap.Sheds+snap.Errors != int64(rep.Rejected) {
		t.Errorf("registry sheds=%d+errors=%d != harness rejected=%d",
			snap.Sheds, snap.Errors, rep.Rejected)
	}
	if snap.LatencyNanos.Count != snap.Queries {
		t.Errorf("latency histogram count=%d != queries=%d",
			snap.LatencyNanos.Count, snap.Queries)
	}
	if snap.Executions < snap.Queries {
		t.Errorf("executions=%d < queries=%d despite retries", snap.Executions, snap.Queries)
	}
	t.Logf("observatory: %d queries, %d executions, %d sheds, %d errors, p99 latency %.2fms, worst q-error %.3g",
		snap.Queries, snap.Executions, snap.Sheds, snap.Errors,
		snap.LatencyNanos.P99/1e6, snap.WorstQError)
}

// TestChaosSoakSheds squeezes the governor until it must reject — one
// execution slot, a one-deep queue, a near-zero wait budget — and checks
// that every rejection is typed ErrAdmission (the harness's Rejected hook
// accepts nothing else, so an untyped rejection fails the soak), that
// queries still succeed under the squeeze, and that the resource
// invariants survive heavy shedding.
func TestChaosSoakSheds(t *testing.T) {
	sys, q := resilChainSystem(t, 2)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)

	b := resilBindings(2, 0.5, 64)
	ref, err := db.Exec(context.Background(), mod, b, ExecOptions{Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	db.SetGovernor(GovernorConfig{
		TotalPages:    64,
		MinGrantPages: 8,
		MaxConcurrent: 1,
		MaxQueued:     1,
		QueueTimeout:  5 * time.Millisecond,
	})
	// Transient faults plus multi-millisecond backoffs stretch each
	// execution well past the queue-wait budget, so with one slot and a
	// one-deep queue the eight workers must overlap and the governor must
	// shed — regardless of how fast the machine runs the query itself.
	db.InjectFaults(FaultConfig{Seed: 11, TransientRate: 0.3})
	defer db.faults.Store(nil)

	rep, err := harness.Soak(context.Background(), harness.ChaosConfig{
		Seed:       3,
		Workers:    8,
		Iterations: 6,
		Queries: []harness.ChaosQuery{{
			Name:      "squeezed",
			Reference: strings.Join(canonical(ref), "\n"),
			Run: func(ctx context.Context, seed int64) (string, error) {
				res, err := db.Exec(ctx, mod, b, ExecOptions{Governed: true, Resilient: true, Policy: RetryPolicy{
					MaxAttempts: 60,
					Backoff:     2 * time.Millisecond,
					MaxBackoff:  4 * time.Millisecond,
					JitterSeed:  seed,
				}})
				if err != nil {
					return "", err
				}
				return strings.Join(canonical(res), "\n"), nil
			},
		}},
		Rejected: func(err error) bool { return errors.Is(err, ErrAdmission) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Error("squeezed governor shed nothing; the scenario is vacuous")
	}
	t.Log(rep)

	s := db.GovernorStats()
	if s.ShedQueueFull+s.ShedTimeout != int64(rep.Rejected) {
		t.Errorf("governor sheds %d != rejected %d", s.ShedQueueFull+s.ShedTimeout, rep.Rejected)
	}
	if got := db.OutstandingGrantPages(); got != 0 {
		t.Errorf("outstanding grant pages = %v, want 0", got)
	}
	if s.Admitted != s.Completed {
		t.Errorf("admitted %d != completed %d", s.Admitted, s.Completed)
	}
}

// TestChaosSoakReopt is the mid-query re-optimization soak: a 4x-stale
// catalog makes every query trip a cardinality guard and switch (module
// mix) or re-plan (static-plan mix) mid-flight, while transient page
// faults land during the switches. Every completed query must produce the
// digest of its unconstrained, re-opt-free reference; every spooled
// temporary must be released exactly once (the registry's temp ledger
// balances); and no goroutine may outlive the soak. Every mix is traced, so
// under -race the soak also checks that each query's spans, collector and
// re-optimization controller stay on the goroutine that runs it.
func TestChaosSoakReopt(t *testing.T) {
	iterations := 20
	if testing.Short() {
		iterations = 6
	}
	sys, q, db := reoptStaleDB(t, 3, "C2", 4)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.ChoosePlanCount() == 0 {
		t.Fatal("soak plan has no choose-plans; the switch mix is vacuous")
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	lc := exec.NewLeakChecker()
	db.wrap = lc.Wrap

	// The caller's context bounds each query's total time, retries
	// included.
	rp := &ReoptPolicy{Query: q}
	pol := func(seed int64) RetryPolicy {
		return RetryPolicy{MaxAttempts: 80, Backoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond, JitterSeed: seed}
	}
	b := resilBindings(3, 0.5, 64)
	refMod, err := db.Exec(context.Background(), mod, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refPlan, err := db.Exec(context.Background(), p, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []harness.ChaosQuery{
		{
			Name:      "switch-mix",
			Reference: strings.Join(canonical(refMod), "\n"),
			Run: func(ctx context.Context, seed int64) (string, error) {
				ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
				defer cancel()
				res, err := db.Exec(ctx, mod, b, ExecOptions{
					Governed: true, Resilient: true, Policy: pol(seed), Reopt: rp, Trace: true,
				})
				if err != nil {
					return "", err
				}
				return strings.Join(canonical(res), "\n"), nil
			},
		},
		{
			// The eager trigger under the same load: every relation is
			// observed into a temporary of its own, per retry attempt.
			Name:      "eager-mix",
			Reference: strings.Join(canonical(refMod), "\n"),
			Run: func(ctx context.Context, seed int64) (string, error) {
				ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
				defer cancel()
				res, err := db.Exec(ctx, mod, b, ExecOptions{
					Governed: true, Resilient: true, Policy: pol(seed), Reopt: rp, Adaptive: true, Trace: true,
				})
				if err != nil {
					return "", err
				}
				return strings.Join(canonical(res), "\n"), nil
			},
		},
		{
			Name:      "replan-mix",
			Reference: strings.Join(canonical(refPlan), "\n"),
			Run: func(ctx context.Context, seed int64) (string, error) {
				ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
				defer cancel()
				// Without Resilient nothing retries a query, so this mix retries
				// transient faults itself — they heal after a bounded number
				// of touches. Each attempt still re-plans from scratch.
				for {
					res, err := db.Exec(ctx, p, b, ExecOptions{Reopt: rp, Trace: true})
					if err != nil {
						if IsRetryable(err) {
							continue
						}
						return "", err
					}
					return strings.Join(canonical(res), "\n"), nil
				}
			},
		},
	}

	db.EnableObservatory()
	defer db.DisableObservatory()
	before := harness.StableGoroutines()
	db.SetGovernor(GovernorConfig{
		TotalPages:    512,
		MinGrantPages: 16,
		MaxConcurrent: 6,
		MaxQueued:     8,
		QueueTimeout:  time.Second,
	})
	defer db.ClearGovernor()
	db.InjectFaults(FaultConfig{Seed: 11, TransientRate: 0.1})
	defer db.faults.Store(nil)

	rep, err := harness.Soak(context.Background(), harness.ChaosConfig{
		Seed:       3,
		Workers:    6,
		Iterations: iterations,
		Queries:    queries,
		Rejected: func(err error) bool {
			return errors.Is(err, ErrAdmission) || IsCanceled(err)
		},
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

	snap := db.MetricsSnapshot()
	if snap.Reopts == 0 {
		t.Error("no guard tripped during the soak; the scenario is vacuous")
	}
	if snap.ReoptSwitches == 0 || snap.ReoptReplans == 0 {
		t.Errorf("both remedies must run: switches=%d replans=%d", snap.ReoptSwitches, snap.ReoptReplans)
	}
	// Zero leaked temporaries: with no query in flight, every spooled
	// temporary has been released exactly once.
	if snap.ReoptTempsCreated == 0 || snap.ReoptTempsCreated != snap.ReoptTempsReleased {
		t.Errorf("temp ledger unbalanced: created=%d released=%d",
			snap.ReoptTempsCreated, snap.ReoptTempsReleased)
	}

	if got := db.OutstandingGrantPages(); got != 0 {
		t.Errorf("outstanding grant pages = %v, want 0", got)
	}
	s := db.GovernorStats()
	if s.Admitted != s.Completed {
		t.Errorf("admitted %d != completed %d: a ticket was not released", s.Admitted, s.Completed)
	}
	if leaked := lc.Leaked(); len(leaked) > 0 {
		t.Errorf("leaked iterators: %v", leaked)
	}
	if after := harness.StableGoroutines(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d", before, after)
	}
}
