package dynplan

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dynplan/internal/exec"
	"dynplan/internal/storage"
)

// TestConcurrentQueriesOneDatabase is the -race regression for sharing one
// Database: several goroutines execute resilient queries concurrently —
// traced, with observability on, iterators leak-checked, and another goroutine
// hot-swapping the fault injector under them — and every execution must
// return exactly its fault-free reference rows with its own operator
// stats window.
func TestConcurrentQueriesOneDatabase(t *testing.T) {
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
	db.EnableObservability()
	lc := exec.NewLeakChecker()
	db.wrap = lc.Wrap

	type mix struct {
		b   Bindings
		ref []string
	}
	var mixes []mix
	for _, sel := range []float64{0.2, 0.5, 0.8} {
		b := resilBindings(3, sel, 64)
		res, err := db.Exec(context.Background(), mod, b, ExecOptions{Resilient: true})
		if err != nil {
			t.Fatal(err)
		}
		mixes = append(mixes, mix{b: b, ref: canonical(res)})
	}

	// Every hot-swap below installs a fresh injector, unhealing its
	// faulty pages, and each failed attempt heals one (injector, page)
	// pair: the transient pages of every configuration the queries can
	// meet, plus the clean attempt, bound the attempts any query needs.
	configs := []FaultConfig{{Seed: 5, TransientRate: 0.1}}
	for i := 0; i < 10; i++ {
		configs = append(configs, FaultConfig{Seed: int64(i), TransientRate: 0.1})
	}
	maxAttempts := 1
	for _, cfg := range configs {
		inj := storage.NewInjector(cfg)
		for _, rel := range []string{"C1", "C2", "C3"} {
			table, err := db.store.Table(rel)
			if err != nil {
				t.Fatal(err)
			}
			for p := range table.NumPages() {
				if inj.PageRead(rel, int32(p), nil) != nil {
					maxAttempts++
				}
			}
		}
	}

	db.InjectFaults(configs[0])
	defer db.faults.Store(nil)

	const workers, iters = 4, 6
	errCh := make(chan error, workers*iters)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m := mixes[(w+i)%len(mixes)]
				res, err := db.Exec(context.Background(), mod, m.b, ExecOptions{Resilient: true, Policy: RetryPolicy{MaxAttempts: maxAttempts}, Trace: true})
				if err != nil {
					errCh <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
				if !reflect.DeepEqual(canonical(res), m.ref) {
					errCh <- fmt.Errorf("worker %d iter %d: rows differ from reference", w, i)
				}
				if res.Operators == nil {
					errCh <- fmt.Errorf("worker %d iter %d: no per-execution operator stats", w, i)
				}
			}
		}(w)
	}
	// Hot-swap the injector while queries run: executions snapshot it once
	// at start, so a swap must never tear a running query.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, cfg := range configs[1:] {
			db.InjectFaults(cfg)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if leaked := lc.Leaked(); len(leaked) > 0 {
		t.Errorf("leaked iterators: %v", leaked)
	}
}

// TestGovernedRejectionTaxonomy pins the governor's error contract: queue
// timeouts and queue-full rejections are ErrAdmission (not retryable, not
// canceled, attributed to no operator or relation), caller cancellation
// stays cancellation, and a query that survives the queue returns the
// reference rows with its admission account attached.
func TestGovernedRejectionTaxonomy(t *testing.T) {
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
		QueueTimeout:  40 * time.Millisecond,
	})

	// Occupy the only execution slot directly.
	hog, err := db.gov.Acquire(context.Background(), "", 8)
	if err != nil {
		t.Fatal(err)
	}

	// One query fits in the queue and will win the slot once the hog lets
	// go; launch it and wait until it is actually queued.
	type outcome struct {
		res *ExecResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := db.Exec(context.Background(), mod, b, ExecOptions{Governed: true, Resilient: true})
		done <- outcome{res, err}
	}()
	for db.GovernorStats().Queued == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	// The queue is now full: the next arrival is shed immediately.
	_, err = db.Exec(context.Background(), mod, b, ExecOptions{Governed: true, Resilient: true})
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("queue-full rejection = %v, want ErrAdmission", err)
	}
	if IsRetryable(err) || IsCanceled(err) {
		t.Error("admission rejection misclassified as retryable or canceled")
	}
	if FailedOperator(err) != "" || FailedRelation(err) != "" {
		t.Error("admission rejection attributed to an operator or relation")
	}

	// A canceled caller is a cancellation, never a shed.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Exec(canceled, mod, b, ExecOptions{Governed: true, Resilient: true}); !IsCanceled(err) {
		t.Errorf("canceled admission = %v, want cancellation", err)
	}

	hog.Release()
	got := <-done
	if got.err != nil {
		t.Fatalf("queued query failed: %v", got.err)
	}
	if !reflect.DeepEqual(canonical(got.res), canonical(ref)) {
		t.Error("governed rows differ from reference")
	}
	if got.res.Admission == nil {
		t.Fatal("governed result carries no admission stats")
	}
	if got.res.Admission.QueueWaitNanos == 0 {
		t.Error("queued query reports zero queue wait")
	}
	if !strings.Contains(got.res.Admission.Render(), "admission: granted") {
		t.Errorf("admission render = %q", got.res.Admission.Render())
	}
	s := db.GovernorStats()
	if s.ShedQueueFull != 1 {
		t.Errorf("ShedQueueFull = %d, want 1", s.ShedQueueFull)
	}
	if s.ShedTimeout != 0 {
		t.Errorf("ShedTimeout = %d, want 0 (cancellation must not count as shedding)", s.ShedTimeout)
	}

	// Removing the governor reverts Governed execution to plain resilient
	// execution: no admission account, zeroed counters.
	db.ClearGovernor()
	res, err := db.Exec(context.Background(), mod, b, ExecOptions{Governed: true, Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admission != nil {
		t.Error("ungoverned execution carries admission stats")
	}
	if got := db.GovernorStats(); !reflect.DeepEqual(got, GovernorStats{}) {
		t.Errorf("cleared governor stats = %+v", got)
	}
	if db.OutstandingGrantPages() != 0 {
		t.Error("cleared governor reports outstanding pages")
	}
}

// TestResilientBackoffMetadata pins the retry backoff contract: one
// recorded pause per retry, each within the equal-jitter envelope of its
// capped-exponential nominal value and equal to the policy's backoff
// schedule, the total summed on the result, every pause traced
// as a decision, and the whole schedule reproducible from JitterSeed.
func TestResilientBackoffMetadata(t *testing.T) {
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
	pol := RetryPolicy{
		MaxAttempts: 80,
		Backoff:     200 * time.Microsecond,
		MaxBackoff:  800 * time.Microsecond,
		JitterSeed:  7,
	}

	run := func() *ExecResult {
		t.Helper()
		db.InjectFaults(FaultConfig{Seed: 42, TransientRate: 0.15})
		res, err := db.Exec(context.Background(), mod, b, ExecOptions{Resilient: true, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		db.faults.Store(nil)
		return res
	}
	res := run()
	if res.Retries == 0 {
		t.Fatal("no retries; the scenario is vacuous")
	}
	if len(res.Backoffs) != res.Retries {
		t.Fatalf("%d backoffs recorded for %d retries", len(res.Backoffs), res.Retries)
	}
	var sum time.Duration
	for i, d := range res.Backoffs {
		nominal := pol.Backoff << uint(i)
		if nominal > pol.MaxBackoff {
			nominal = pol.MaxBackoff
		}
		if d < nominal/2 || d > nominal {
			t.Errorf("backoff %d = %v outside equal-jitter envelope [%v, %v]", i, d, nominal/2, nominal)
		}
		if want := backoff(pol.Backoff, pol.MaxBackoff, pol.JitterSeed, i+1); d != want {
			t.Errorf("backoff %d = %v, want the policy's schedule %v", i, d, want)
		}
		sum += d
	}
	if res.BackoffTotal != sum {
		t.Errorf("BackoffTotal = %v, want %v", res.BackoffTotal, sum)
	}
	traced := 0
	for _, d := range res.Decisions {
		if strings.HasPrefix(d.Operator, "Retry after attempt") {
			traced++
			if !strings.Contains(d.Reason, "backed off") {
				t.Errorf("retry decision lacks its backoff: %q", d.Reason)
			}
		}
	}
	if traced != res.Retries {
		t.Errorf("%d retry decisions traced for %d retries", traced, res.Retries)
	}
	// Same fault seed, same jitter seed: the schedule must reproduce.
	if again := run(); !reflect.DeepEqual(again.Backoffs, res.Backoffs) {
		t.Errorf("backoff schedule not reproducible: %v vs %v", again.Backoffs, res.Backoffs)
	}
}

// TestCircuitBreakerLifecycle drives one relation's circuit through its
// whole state machine via the public API: repeated permanent faults open
// it (with operator and relation attribution surviving the retry
// wrapping), an open circuit fails fast with ErrCircuitOpen when no plan
// alternative avoids the relation, the clock-free cooldown half-opens it,
// and a successful probe closes it again.
func TestCircuitBreakerLifecycle(t *testing.T) {
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
	b := resilBindings(1, 0.5, 64)

	db.InjectFaults(FaultConfig{Seed: 9, PermanentRate: 1})
	var tripped error
	for i := 0; i < 8 && tripped == nil; i++ {
		_, err := db.Exec(context.Background(), mod, b, ExecOptions{Resilient: true, Policy: RetryPolicy{MaxAttempts: 2}})
		if err == nil {
			t.Fatal("execution succeeded with every page permanently faulty")
		}
		if errors.Is(err, ErrCircuitOpen) {
			tripped = err
			break
		}
		// Pre-trip failures keep their classification and attribution
		// through the retry wrapping.
		if !errors.Is(err, ErrPermanentIO) || !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("failure lost its classification: %v", err)
		}
		if FailedRelation(err) != "C1" {
			t.Fatalf("FailedRelation = %q, want C1 (err: %v)", FailedRelation(err), err)
		}
		if !strings.Contains(FailedOperator(err), "C1") {
			t.Fatalf("FailedOperator = %q does not name C1", FailedOperator(err))
		}
	}
	if tripped == nil {
		t.Fatal("circuit never opened")
	}
	if !strings.Contains(tripped.Error(), "C1") {
		t.Errorf("circuit-open error does not name the relation: %v", tripped)
	}
	if trips := db.breaker.Trips(); trips["C1"] != 1 {
		t.Errorf("BreakerTrips = %v, want C1:1", trips)
	}

	// The blocked execution above counted the (cooldown=1) step, so the
	// circuit is now half-open: with the fault gone, the probe must pass
	// and close the circuit for good.
	db.faults.Store(nil)
	for i := 0; i < 2; i++ {
		if _, err := db.Exec(context.Background(), mod, b, ExecOptions{Resilient: true}); err != nil {
			t.Fatalf("post-cooldown execution %d failed: %v", i, err)
		}
	}
	if trips := db.breaker.Trips(); trips["C1"] != 1 {
		t.Errorf("closed circuit re-tripped: %v", trips)
	}
}
