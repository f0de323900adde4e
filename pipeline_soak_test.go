package dynplan

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynplan/internal/exec"
	"dynplan/internal/physical"
)

// TestExecPipelineSoak drives the unified db.Exec entry point through the
// four hard paths of the stage table — transient faults absorbed by the
// Remedy stage's retry, admission sheds, retry exhaustion, and an open
// circuit breaker — concurrently, so `go test -race` checks the pipeline's
// shared state (the stage table, governor snapshots, observatory recording)
// under contention. Each subtest uses a fresh system and database.
func TestExecPipelineSoak(t *testing.T) {
	const workers = 6
	iters := 5
	if testing.Short() {
		iters = 2
	}

	t.Run("fault-absorbed", func(t *testing.T) {
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
		binds := resilBindings(3, 0.5, 64)
		ref, err := db.Exec(context.Background(), mod, binds, ExecOptions{Resilient: true})
		if err != nil {
			t.Fatalf("reference run failed: %v", err)
		}
		want := strings.Join(canonical(ref), "\n")

		db.EnableObservatory()
		defer db.DisableObservatory()
		db.InjectFaults(FaultConfig{Seed: 11, TransientRate: 0.2})
		defer db.faults.Store(nil)

		var wg sync.WaitGroup
		errs := make(chan error, workers*iters)
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				pol := RetryPolicy{
					MaxAttempts: 40,
					Backoff:     50 * time.Microsecond,
					MaxBackoff:  500 * time.Microsecond,
					JitterSeed:  int64(w + 1),
				}
				for i := 0; i < iters; i++ {
					res, err := db.Exec(context.Background(), mod, binds,
						ExecOptions{Resilient: true, Policy: pol})
					if err != nil {
						errs <- err
						continue
					}
					if got := strings.Join(canonical(res), "\n"); got != want {
						errs <- errors.New("faulted execution returned different rows than the reference")
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if db.injector().Stats().Injected == 0 {
			t.Error("no faults were injected; the soak is vacuous")
		}
		snap := db.MetricsSnapshot()
		if snap.Queries != int64(workers*iters) {
			t.Errorf("registry queries = %d, want %d", snap.Queries, workers*iters)
		}
		if snap.Errors != 0 {
			t.Errorf("absorbed faults leaked %d query errors", snap.Errors)
		}
		if snap.Executions < snap.Queries {
			t.Errorf("executions=%d < queries=%d", snap.Executions, snap.Queries)
		}
	})

	t.Run("admission-shed", func(t *testing.T) {
		e := newObsEnv(t)
		e.db.SetGovernor(GovernorConfig{
			TotalPages:    64,
			MaxConcurrent: 1,
			MaxQueued:     1,
			QueueTimeout:  time.Nanosecond,
		})
		defer e.db.ClearGovernor()
		e.db.EnableObservatory()
		defer e.db.DisableObservatory()
		// Slow every root iterator so executions overlap and the one-slot
		// governor actually has to shed the burst.
		e.db.wrap = func(it exec.Iterator, n *physical.Node) exec.Iterator {
			return slowOpen{Iterator: it}
		}
		defer func() { e.db.wrap = nil }()

		const burst = 10
		var wg sync.WaitGroup
		var sheds, succeeded atomic.Int64
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := e.db.Exec(context.Background(), e.mod, e.binds,
					ExecOptions{Governed: true, Resilient: true})
				switch {
				case err == nil:
					succeeded.Add(1)
				case errors.Is(err, ErrAdmission):
					sheds.Add(1)
				default:
					t.Errorf("rejection is not typed ErrAdmission: %v", err)
				}
			}()
		}
		wg.Wait()
		if sheds.Load() == 0 {
			t.Fatal("burst of 10 arrivals against a 2-deep governor shed nothing")
		}
		if succeeded.Load() == 0 {
			t.Fatal("the squeeze starved every query; nothing executed")
		}
		snap := e.db.MetricsSnapshot()
		if snap.Sheds != sheds.Load() {
			t.Errorf("registry sheds = %d, caller saw %d", snap.Sheds, sheds.Load())
		}
		if snap.Errors != 0 {
			t.Errorf("sheds leaked into the error count: %d", snap.Errors)
		}
		if snap.Queries != succeeded.Load() {
			t.Errorf("registry queries = %d, want %d successes", snap.Queries, succeeded.Load())
		}
	})

	t.Run("retry-exhausted", func(t *testing.T) {
		sys, q := resilChainSystem(t, 1)
		dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
		if err != nil {
			t.Fatal(err)
		}
		mod, err := dyn.Module()
		if err != nil {
			t.Fatal(err)
		}
		db := resilDatabase(t, sys)
		db.EnableObservatory()
		defer db.DisableObservatory()
		db.InjectFaults(FaultConfig{Seed: 9, PermanentRate: 1})
		defer db.faults.Store(nil)

		binds := resilBindings(1, 0.5, 64)
		total := workers * iters
		var wg sync.WaitGroup
		errs := make(chan error, total)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					_, err := db.Exec(context.Background(), mod, binds,
						ExecOptions{Resilient: true, Policy: RetryPolicy{MaxAttempts: 2}})
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err == nil {
				t.Fatal("execution succeeded with every page permanently faulty")
			}
			if !errors.Is(err, ErrPermanentIO) {
				t.Fatalf("exhaustion lost the fault classification: %v", err)
			}
			if !strings.Contains(err.Error(), "gave up after") &&
				!strings.Contains(err.Error(), "no alternative branches") {
				t.Fatalf("exhaustion error has unexpected shape: %v", err)
			}
		}
		snap := db.MetricsSnapshot()
		if snap.Errors != int64(total) || snap.Queries != int64(total) {
			t.Errorf("registry queries=%d errors=%d, want both %d", snap.Queries, snap.Errors, total)
		}
		if snap.Executions < snap.Queries {
			t.Errorf("executions=%d < queries=%d despite retries", snap.Executions, snap.Queries)
		}
	})

	t.Run("breaker-open", func(t *testing.T) {
		sys, q := resilChainSystem(t, 1)
		dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
		if err != nil {
			t.Fatal(err)
		}
		mod, err := dyn.Module()
		if err != nil {
			t.Fatal(err)
		}
		db := resilDatabase(t, sys)
		db.SetGovernor(GovernorConfig{BreakerThreshold: 3, BreakerCooldown: 1})
		defer db.ClearGovernor()
		binds := resilBindings(1, 0.5, 64)

		// Trip the breaker sequentially: permanent faults charge C1 until
		// its circuit opens and the pipeline fails fast.
		db.InjectFaults(FaultConfig{Seed: 9, PermanentRate: 1})
		var tripped error
		for i := 0; i < 8 && tripped == nil; i++ {
			_, err := db.Exec(context.Background(), mod, binds,
				ExecOptions{Resilient: true, Policy: RetryPolicy{MaxAttempts: 2}})
			if err == nil {
				t.Fatal("execution succeeded with every page permanently faulty")
			}
			if errors.Is(err, ErrCircuitOpen) {
				tripped = err
			}
		}
		if tripped == nil {
			t.Fatal("circuit never opened")
		}
		if trips := db.breaker.Trips(); trips["C1"] != 1 {
			t.Errorf("BreakerTrips = %v, want C1:1", trips)
		}

		// With the fault source gone, concurrent clients hammer the open
		// circuit: blocked executions count cooldown steps, the half-open
		// probe passes, the circuit closes, and everyone converges on
		// success. Race-clean convergence is the point.
		db.faults.Store(nil)
		var wg sync.WaitGroup
		fails := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last error
				for i := 0; i < 20; i++ {
					_, err := db.Exec(context.Background(), mod, binds,
						ExecOptions{Resilient: true})
					if err == nil {
						return
					}
					if !errors.Is(err, ErrCircuitOpen) {
						fails <- err
						return
					}
					last = err
					time.Sleep(time.Millisecond)
				}
				fails <- last
			}()
		}
		wg.Wait()
		close(fails)
		for err := range fails {
			t.Errorf("client never recovered after the circuit healed: %v", err)
		}
		if trips := db.breaker.Trips(); trips["C1"] != 1 {
			t.Errorf("healed circuit re-tripped: %v", trips)
		}
	})
}
