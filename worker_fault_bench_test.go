package dynplan

import (
	"context"
	"strings"
	"testing"
	"time"

	"dynplan/internal/obs"
)

// BenchmarkWorkerFaultRecovery measures what fault-domain isolation buys:
// the same transient fault — the first page of the last scan partition of
// C1 — recovered two ways. The worker-retry arm re-runs only the faulted
// worker's partition; the whole-query arm (worker retry and the
// degradation ladder disabled) recovers through the resilient executor's
// whole-query retry. Re-read I/O is counted by the fault injector, which
// sees every routed page read: recovery cost = reads with the fault minus
// reads of a fault-free run through the same (zero-rate) injector. All
// counts are deterministic — partitioning is by page range, the fault is
// page-addressed, and a retrying worker replays its own partition only —
// so re-runs produce byte-identical records (asserted below by running
// the worker arm twice). The record write fails unless the worker-retry
// arm re-reads at most 1/DOP of what whole-query retry re-reads — the
// acceptance floor of the fault-domain design, gated in CI via benchdiff.
func BenchmarkWorkerFaultRecovery(b *testing.B) {
	sys, _ := resilChainSystem(b, 2)
	db := resilDatabase(b, sys)
	root := degradeJoinPlan()
	bind := Bindings{MemoryPages: 96}
	ctx := context.Background()

	serial, err := db.Exec(context.Background(), root, bind, ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	want := strings.Join(canonical(serial), "\n")

	// Observe the DOP the grant funds, then target the first page of the
	// last worker's partition: worker retry replays one page; whole-query
	// retry replays every earlier partition too.
	probe, err := db.Exec(ctx, root, bind, ExecOptions{Parallel: true})
	if err != nil {
		b.Fatal(err)
	}
	if probe.Parallel == nil || probe.Parallel.DOP <= 1 {
		b.Fatalf("plan does not run parallel: %+v", probe.Parallel)
	}
	dop := probe.Parallel.DOP
	pages, err := db.RelationPages("C1")
	if err != nil {
		b.Fatal(err)
	}
	lo, _ := PartitionPageRange(pages, dop, dop-1)
	cfg := FaultConfig{
		Seed: 5, TransientRate: 1,
		TargetRel: "C1", TargetPageLo: lo, TargetPageHi: lo + 1,
	}
	workerOpts := ExecOptions{
		Parallel: true,
		// Backoff shaping is irrelevant to I/O counts; keep it tiny so the
		// timed subbenches measure re-execution, not sleeping.
		WorkerRetry: &WorkerRetryPolicy{MaxAttempts: 3, Backoff: time.Nanosecond},
	}
	// The whole-query arm re-runs the entire query on failure — the
	// recovery the engine's Retry stage performs, driven here as a restart
	// loop because the stage itself needs a *Module to steer alternatives
	// and this plan is a bare tree. It runs serial: page order is then
	// deterministic, where a parallel attempt's partial read count would
	// depend on how far the other workers got before teardown, and the
	// floor below needs exact integers.
	wholeOpts := ExecOptions{
		WorkerRetry: &WorkerRetryPolicy{MaxAttempts: 1}, // off: first fault escalates
		Degrade:     &DegradePolicy{Disabled: true},
	}
	wholeArm := func() (*ExecResult, int) {
		for attempt := 1; ; attempt++ {
			res, err := db.Exec(ctx, root, bind, wholeOpts)
			if err == nil {
				return res, attempt
			}
			if attempt >= 10 {
				b.Fatalf("whole-query restart loop exhausted: %v", err)
			}
		}
	}

	// Fault-free baseline reads through a routing, zero-rate injector.
	baseline := func(opts ExecOptions) int64 {
		db.InjectFaults(FaultConfig{Seed: 5, TargetRel: "C1", TargetPageLo: lo, TargetPageHi: lo + 1})
		defer db.ClearFaults()
		if _, err := db.Exec(ctx, root, bind, opts); err != nil {
			b.Fatal(err)
		}
		return db.FaultStats().Reads
	}
	workerBase := baseline(workerOpts)
	wholeBase := baseline(wholeOpts)

	workerArm := func() (*ExecResult, int64) {
		db.InjectFaults(cfg)
		defer db.ClearFaults()
		res, err := db.Exec(ctx, root, bind, workerOpts)
		if err != nil {
			b.Fatal(err)
		}
		if st := db.FaultStats(); st.Injected == 0 {
			b.Fatal("no fault injected; the recovery measurement is vacuous")
		}
		return res, db.FaultStats().Reads - workerBase
	}
	res, workerRereads := workerArm()
	if got := strings.Join(canonical(res), "\n"); got != want {
		b.Fatal("worker-retry rows diverge from the fault-free serial run")
	}
	if res.Parallel.WorkerRetries < 1 || res.Retries != 0 || len(res.Degrade) != 0 {
		b.Fatalf("worker arm did not recover inside the worker: worker-retries=%d retries=%d degrade=%d",
			res.Parallel.WorkerRetries, res.Retries, len(res.Degrade))
	}
	res2, rereads2 := workerArm()
	if rereads2 != workerRereads || res2.Parallel.WorkerRetries != res.Parallel.WorkerRetries {
		b.Fatalf("worker-arm re-run diverged: rereads %d vs %d, retries %d vs %d",
			workerRereads, rereads2, res.Parallel.WorkerRetries, res2.Parallel.WorkerRetries)
	}

	db.InjectFaults(cfg)
	wres, wholeAttempts := wholeArm()
	wholeRereads := db.FaultStats().Reads - wholeBase
	db.ClearFaults()
	if got := strings.Join(canonical(wres), "\n"); got != want {
		b.Fatal("whole-query-retry rows diverge from the fault-free serial run")
	}
	if wholeAttempts < 2 {
		b.Fatalf("whole-query arm never restarted (attempts=%d); the comparison is vacuous", wholeAttempts)
	}

	b.Run("worker-retry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			workerArm()
		}
	})
	b.Run("whole-query-retry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.InjectFaults(cfg)
			wholeArm()
			db.ClearFaults()
		}
	})

	if benchRecordDir() == "" {
		return
	}
	ratio := float64(workerRereads) / float64(wholeRereads)
	if floor := 1 / float64(dop); ratio > floor {
		b.Fatalf("worker-retry re-reads %d are %.2fx of whole-query re-reads %d, above the 1/DOP floor %.2f",
			workerRereads, ratio, wholeRereads, floor)
	}
	rec := &obs.RunRecord{
		Name:  "worker-faults",
		Query: "C1 ⋈ C2 at a 96-page grant, transient fault on the last partition's first page: per-worker retry vs whole-query retry recovery I/O",
		Metrics: map[string]float64{
			"dop":                   float64(dop),
			"baseline-reads":        float64(workerBase),
			"worker-rereads":        float64(workerRereads),
			"whole-query-rereads":   float64(wholeRereads),
			"reread-ratio":          ratio,
			"worker-retries":        float64(res.Parallel.WorkerRetries),
			"whole-query-restarts":  float64(wholeAttempts - 1),
			"faulted-page":          float64(lo),
			"target-partition-lo/k": float64(dop - 1),
		},
		// The gated total is the fault-free account: recovery must not
		// change the work a clean run does.
		SimCostTotal: serial.SimulatedSeconds(DefaultParams()),
	}
	writeBenchRecord(b, rec)
}
