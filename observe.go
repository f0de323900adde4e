package dynplan

import (
	"fmt"
	"time"

	"dynplan/internal/obs"
)

// The observability layer's types, re-exported for callers outside the
// module's internal tree. See internal/obs for the full documentation.
type (
	// PlanStats is the per-operator stats tree of an observed execution,
	// parallel to the executed physical plan.
	PlanStats = obs.PlanStats
	// OpCounters is one operator's runtime tally (rows, Next calls, page
	// I/O, tuple work, wall time, memory high-water, faults absorbed).
	OpCounters = obs.Counters
	// OptimizerSpan is the telemetry of one optimization run: memo size,
	// candidates enumerated, plans pruned versus kept incomparable,
	// choose-plans emitted, and produced plan shape.
	OptimizerSpan = obs.OptimizerSpan
	// ChoiceTrace records how one choose-plan operator was resolved at
	// start-up-time and why.
	ChoiceTrace = obs.ChoiceTrace
	// RunRecord is the machine-readable JSON record of one measured run,
	// the unit the CI benchmark pipeline diffs (BENCH_<name>.json).
	RunRecord = obs.RunRecord
	// TraceRecord is one query's finished span tree: a span per pipeline
	// stage, reopt attempt, degradation rung, and exchange worker, with
	// wait states attributed (see ExecResult.Trace and /traces).
	TraceRecord = obs.TraceRecord
	// TraceSpan is one node of a trace's span tree.
	TraceSpan = obs.Span
)

// EnableTracing turns on end-to-end span tracing for every subsequent
// execution: each query builds a hierarchical span tree over its pipeline
// stages — with re-optimization attempts, degradation rungs, parallel
// exchange workers, and explicit wait-state attribution (admission queue,
// grant negotiation, backoff sleeps, exchange channel waits, replan
// planning time) — carried on ExecResult.Trace under a deterministic
// TraceID. When the workload observatory is also enabled, finished traces
// land in its bounded ring and are served by the /traces endpoint, and
// each stage's latency feeds the per-stage histograms in /metrics. When
// disabled (the default), the per-stage overhead is one pointer
// comparison and no allocations; a single query can opt in instead via
// ExecOptions.Trace.
func (db *Database) EnableTracing() { db.tracing.Store(true) }

// nextTraceID issues the next deterministic trace identifier; the
// sequence is per database, so a run's Nth traced query is always
// t<N> zero-padded.
func (db *Database) nextTraceID() string {
	return fmt.Sprintf("t%08d", db.traceSeq.Add(1))
}

// EnableObservability turns on per-operator metrics collection: subsequent
// executions populate ExecResult.Operators with a stats tree parallel
// to the executed plan, rendered by ExecResult.ExplainAnalyze. Each
// execution collects into its own window, so concurrent queries never
// share counters. Collection meters every iterator call; when disabled
// (the default) the hooks reduce to one nil check per compiled operator
// and allocate nothing.
func (db *Database) EnableObservability() { db.observing.Store(true) }

// ExplainAnalyze renders the executed plan annotated with the observed
// per-operator metrics — rows produced, page I/O, tuple work, wall and
// simulated time, buffered memory — followed by the execution's totals.
// I/O and time figures are inclusive of each operator's inputs; rows are
// the operator's own output. The database must have had observability
// enabled when the plan ran; otherwise a note says so.
func (r *ExecResult) ExplainAnalyze(p Params) string {
	if r.Operators == nil {
		return "EXPLAIN ANALYZE: no operator stats collected (call Database.EnableObservability before executing)\n"
	}
	rates := obs.CostRates{
		SeqPage:  p.SeqPageTime,
		RandPage: p.RandIOTime,
		Write:    p.SeqPageTime,
		Tuple:    p.TupleCPUTime,
	}
	out := r.Operators.Render(rates)
	out += fmt.Sprintf("Totals: rows=%d seq=%d rand=%d write=%d tuples=%d sim=%.4gs",
		len(r.Rows), r.SeqPageReads, r.RandPageReads, r.PageWrites, r.TupleOps,
		r.SimulatedSeconds(p))
	if r.Retries > 0 {
		out += fmt.Sprintf(" retries=%d", r.Retries)
	}
	if r.FaultsAbsorbed > 0 {
		out += fmt.Sprintf(" faults-absorbed=%d", r.FaultsAbsorbed)
	}
	if r.BackoffTotal > 0 {
		out += fmt.Sprintf(" backoff=%v", r.BackoffTotal.Round(time.Microsecond))
	}
	out += "\n"
	if r.Tenant != "" || r.PlanCacheHit {
		verdict := "miss"
		if r.PlanCacheHit {
			verdict = "hit"
		}
		tenant := r.Tenant
		if tenant == "" {
			tenant = "(anonymous)"
		}
		out += fmt.Sprintf("Prepared: tenant=%s plan-cache=%s\n", tenant, verdict)
	}
	out += r.Admission.Render()
	if len(r.Decisions) > 0 {
		out += obs.RenderDecisions(r.Decisions)
	}
	if r.Reopt != nil {
		out += obs.RenderReoptEvents(r.Reopt.Events)
	}
	out += obs.RenderDegrade(r.Degrade)
	for _, line := range obs.RenderParallel(r.Parallel) {
		out += line + "\n"
	}
	if r.Trace != nil {
		// The per-stage latency breakdown: the span tree with durations,
		// self times, and attributed waits per pipeline stage.
		out += r.Trace.Render()
	}
	return out
}

// RunRecordFor packages the execution into a machine-readable run record:
// the observed plan shape with per-operator counters (when observability
// was enabled), the start-up decisions, the I/O account as metrics, the
// simulated cost as the CI-gated total, plus the resilience account
// (retries, backoffs), the governor's admission stats, and the workload
// observatory's calibration verdicts when the execution carried them.
// Calibration also surfaces as the informational "q-error-max" and
// "interval-violations" metrics — present only when verdicts exist, so
// committed baselines from uncalibrated runs never drift against them.
func (r *ExecResult) RunRecordFor(name, query string, p Params) *RunRecord {
	rec := &RunRecord{
		Name:  name,
		Query: query,
		Metrics: map[string]float64{
			"rows":            float64(len(r.Rows)),
			"seq-page-reads":  float64(r.SeqPageReads),
			"rand-page-reads": float64(r.RandPageReads),
			"page-writes":     float64(r.PageWrites),
			"tuple-ops":       float64(r.TupleOps),
		},
		SimCostTotal:      r.SimulatedSeconds(p),
		Operators:         r.Operators,
		Decisions:         r.Decisions,
		Admission:         r.Admission,
		Retries:           r.Retries,
		BranchSwitched:    r.BranchSwitched,
		Backoffs:          len(r.Backoffs),
		BackoffTotalNanos: r.BackoffTotal.Nanoseconds(),
		PlanDigest:        r.PlanDigest,
		Calibration:       r.Calibration,
		TraceID:           r.TraceID,
		Tenant:            r.Tenant,
		CacheHit:          r.PlanCacheHit,
	}
	if len(r.Calibration) > 0 {
		maxQ := 0.0
		violations := 0
		for _, v := range r.Calibration {
			if v.QError > maxQ {
				maxQ = v.QError
			}
			if v.Violation {
				violations++
			}
		}
		rec.Metrics["q-error-max"] = maxQ
		rec.Metrics["interval-violations"] = float64(violations)
	}
	if r.Reopt != nil {
		rec.Reopt = r.Reopt.Events
		rec.Metrics["reopt-attempts"] = float64(r.Reopt.Attempts)
	}
	if len(r.Degrade) > 0 {
		rec.Degrade = r.Degrade
		rec.Metrics["degrade-steps"] = float64(len(r.Degrade))
	}
	if r.Parallel != nil && r.Parallel.WorkerRetries > 0 {
		rec.Metrics["worker-retries"] = float64(r.Parallel.WorkerRetries)
	}
	return rec
}
