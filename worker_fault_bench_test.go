package dynplan

import (
	"context"
	"strings"
	"testing"
	"time"

	"dynplan/internal/obs"
	"dynplan/internal/physical"
)

// workerFaultRig is the scenario behind BenchmarkWorkerFaultRecovery and
// the worker-faults record: the same transient fault — the first page of
// the last scan partition of C1 — recovered two ways. The worker-retry
// arm re-runs only the faulted worker's partition; the whole-query arm
// (worker retry and the degradation ladder disabled) recovers through
// whole-query retry. Re-read I/O is counted by the fault injector, which
// sees every routed page read: recovery cost = reads with the fault minus
// reads of a fault-free run through the same (zero-rate) injector. All
// counts are deterministic — partitioning is by page range, the fault is
// page-addressed, and a retrying worker replays its own partition only.
type workerFaultRig struct {
	db                    *Database
	root                  *physical.Node
	bind                  Bindings
	serial                *ExecResult
	want                  string // canonical fault-free rows
	dop                   int    // DOP the grant funds
	lo                    int32  // the faulted page
	cfg                   FaultConfig
	workerOpts, wholeOpts ExecOptions
	workerBase, wholeBase int64 // fault-free reads of each arm
}

func newWorkerFaultRig(tb testing.TB) *workerFaultRig {
	sys, _ := resilChainSystem(tb, 2)
	r := &workerFaultRig{db: resilDatabase(tb, sys), root: degradeJoinPlan(), bind: Bindings{MemoryPages: 96}}
	ctx := context.Background()
	var err error
	if r.serial, err = r.db.Exec(ctx, r.root, r.bind, ExecOptions{}); err != nil {
		tb.Fatal(err)
	}
	r.want = strings.Join(canonical(r.serial), "\n")

	// Observe the DOP the grant funds, then target the first page of the
	// last worker's partition: worker retry replays one page; whole-query
	// retry replays every earlier partition too.
	probe, err := r.db.Exec(ctx, r.root, r.bind, ExecOptions{Parallel: true})
	if err != nil {
		tb.Fatal(err)
	}
	if probe.Parallel == nil || probe.Parallel.DOP <= 1 {
		tb.Fatalf("plan does not run parallel: %+v", probe.Parallel)
	}
	r.dop = probe.Parallel.DOP
	pages, err := r.db.RelationPages("C1")
	if err != nil {
		tb.Fatal(err)
	}
	r.lo, _ = PartitionPageRange(pages, r.dop, r.dop-1)
	r.cfg = FaultConfig{
		Seed: 5, TransientRate: 1,
		TargetRel: "C1", TargetPageLo: r.lo, TargetPageHi: r.lo + 1,
	}
	r.workerOpts = ExecOptions{
		Parallel: true,
		// Backoff shaping is irrelevant to I/O counts; keep it tiny so the
		// timed subbenches measure re-execution, not sleeping.
		WorkerRetry: &WorkerRetryPolicy{MaxAttempts: 3, Backoff: time.Nanosecond},
	}
	// The whole-query arm re-runs the entire query on failure — the
	// recovery the Remedy stage's retry performs, driven here as a restart
	// loop because the retry itself needs a *Module to steer alternatives
	// and this plan is a bare tree. It runs serial: page order is then
	// deterministic, where a parallel attempt's partial read count would
	// depend on how far the other workers got before teardown, and the
	// floor needs exact integers.
	r.wholeOpts = ExecOptions{
		WorkerRetry: &WorkerRetryPolicy{MaxAttempts: 1}, // off: first fault escalates
	}
	// Fault-free baseline reads through a routing, zero-rate injector.
	baseline := func(opts ExecOptions) int64 {
		r.db.InjectFaults(FaultConfig{Seed: 5, TargetRel: "C1", TargetPageLo: r.lo, TargetPageHi: r.lo + 1})
		defer r.db.faults.Store(nil)
		if _, err := r.db.Exec(ctx, r.root, r.bind, opts); err != nil {
			tb.Fatal(err)
		}
		return r.db.injector().Stats().Reads
	}
	r.workerBase = baseline(r.workerOpts)
	r.wholeBase = baseline(r.wholeOpts)
	return r
}

// workerArm runs the query under the fault with per-worker retry and
// returns the result and its re-reads over the fault-free baseline.
func (r *workerFaultRig) workerArm(tb testing.TB) (*ExecResult, int64) {
	r.db.InjectFaults(r.cfg)
	defer r.db.faults.Store(nil)
	res, err := r.db.Exec(context.Background(), r.root, r.bind, r.workerOpts)
	if err != nil {
		tb.Fatal(err)
	}
	if st := r.db.injector().Stats(); st.Injected == 0 {
		tb.Fatal("no fault injected; the recovery measurement is vacuous")
	}
	return res, r.db.injector().Stats().Reads - r.workerBase
}

// wholeArm runs the query under the fault, restarting it whole until it
// succeeds, and returns the result, its re-reads over the fault-free
// baseline, and the attempts it took.
func (r *workerFaultRig) wholeArm(tb testing.TB) (*ExecResult, int64, int) {
	r.db.InjectFaults(r.cfg)
	defer r.db.faults.Store(nil)
	for attempt := 1; ; attempt++ {
		res, err := r.db.Exec(context.Background(), r.root, r.bind, r.wholeOpts)
		if err == nil {
			return res, r.db.injector().Stats().Reads - r.wholeBase, attempt
		}
		if attempt >= 10 {
			tb.Fatalf("whole-query restart loop exhausted: %v", err)
		}
	}
}

// BenchmarkWorkerFaultRecovery times the two recovery arms of the
// worker-fault scenario; the worker-faults record prices them in re-read
// I/O.
func BenchmarkWorkerFaultRecovery(b *testing.B) {
	r := newWorkerFaultRig(b)
	b.Run("worker-retry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.workerArm(b)
		}
	})
	b.Run("whole-query-retry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.wholeArm(b)
		}
	})
}

// workerFaultsRecord is the worker-faults record. Both arms must return
// the fault-free rows, the worker arm must recover inside the worker and
// reproduce its counts on a re-run, and the builder fails unless the
// worker-retry arm re-reads at most 1/DOP of what whole-query retry
// re-reads — the acceptance floor of the fault-domain design.
func workerFaultsRecord(tb testing.TB) *obs.RunRecord {
	r := newWorkerFaultRig(tb)
	res, workerRereads := r.workerArm(tb)
	if got := strings.Join(canonical(res), "\n"); got != r.want {
		tb.Fatal("worker-retry rows diverge from the fault-free serial run")
	}
	if res.Parallel.WorkerRetries < 1 || res.Retries != 0 || len(res.Degrade) != 0 {
		tb.Fatalf("worker arm did not recover inside the worker: worker-retries=%d retries=%d degrade=%d",
			res.Parallel.WorkerRetries, res.Retries, len(res.Degrade))
	}
	res2, rereads2 := r.workerArm(tb)
	if rereads2 != workerRereads || res2.Parallel.WorkerRetries != res.Parallel.WorkerRetries {
		tb.Fatalf("worker-arm re-run diverged: rereads %d vs %d, retries %d vs %d",
			workerRereads, rereads2, res.Parallel.WorkerRetries, res2.Parallel.WorkerRetries)
	}
	wres, wholeRereads, wholeAttempts := r.wholeArm(tb)
	if got := strings.Join(canonical(wres), "\n"); got != r.want {
		tb.Fatal("whole-query-retry rows diverge from the fault-free serial run")
	}
	if wholeAttempts < 2 {
		tb.Fatalf("whole-query arm never restarted (attempts=%d); the comparison is vacuous", wholeAttempts)
	}
	ratio := float64(workerRereads) / float64(wholeRereads)
	if floor := 1 / float64(r.dop); ratio > floor {
		tb.Fatalf("worker-retry re-reads %d are %.2fx of whole-query re-reads %d, above the 1/DOP floor %.2f",
			workerRereads, ratio, wholeRereads, floor)
	}
	return &obs.RunRecord{
		Query: "C1 ⋈ C2 at a 96-page grant, transient fault on the last partition's first page: per-worker retry vs whole-query retry recovery I/O",
		Metrics: map[string]float64{
			"dop":                   float64(r.dop),
			"baseline-reads":        float64(r.workerBase),
			"worker-rereads":        float64(workerRereads),
			"whole-query-rereads":   float64(wholeRereads),
			"reread-ratio":          ratio,
			"worker-retries":        float64(res.Parallel.WorkerRetries),
			"whole-query-restarts":  float64(wholeAttempts - 1),
			"faulted-page":          float64(r.lo),
			"target-partition-lo/k": float64(r.dop - 1),
		},
		// The headline total is the fault-free account: recovery must not
		// change the work a clean run does.
		SimCostTotal: r.serial.SimulatedSeconds(DefaultParams()),
	}
}
