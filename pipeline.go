package dynplan

// The execution pipeline: Database.Exec routes every query through the one
// stack of composable stages assembled here, so admission, memory grants,
// breaker consultation, retry/backoff, choose-plan activation, execution,
// and workload recording exist exactly once. The paper's start-up-time
// processing (§4) is the Activate stage: the memory binding it resolves
// choose-plans against is whatever the Grant stage actually obtained, not
// what the caller asked for.
//
// A stage is a middleware function over the shared per-query execState;
// the innermost stage runs the resolved plan. There is one stack, composed
// once at package init in the canonical order
//
//	Record → Admit → Grant → Breaker → Retry → Degrade → Reopt → Activate → Run
//
// and each stage decides from the query's state whether it takes part
// (the stages table). The observatory has one writer: stages only note
// the facts they compute on the query's state (st.out), and the pipeline
// entry folds the finished account into the registry exactly once, after
// the trace is sealed — no inner layer holds the registry, so none can
// double-count or lose part of a failed query's account.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"time"

	"dynplan/internal/bindings"
	"dynplan/internal/cost"
	"dynplan/internal/exec"
	"dynplan/internal/governor"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/plancache"
	"dynplan/internal/qerr"
	"dynplan/internal/reopt"
	"dynplan/internal/storage"
)

// ErrPipeline reports an Exec call whose options do not fit its query
// target. Match it with errors.Is.
var ErrPipeline = errors.New("dynplan: invalid execution pipeline")

// PipelineError carries the rule an Exec call broke; it unwraps to
// ErrPipeline.
type PipelineError struct {
	// Reason is the violated rule.
	Reason string
}

func (e *PipelineError) Error() string {
	return fmt.Sprintf("dynplan: invalid execution pipeline: %s", e.Reason)
}

func (e *PipelineError) Unwrap() error { return ErrPipeline }

// execState is one query's mutable state, threaded through every stage of
// the stack. Exactly one of module (resolved per attempt by Activate) or
// root (pre-resolved) identifies the plan. Fields a
// single stage (or a tightly coupled pair) owns live in that stage's
// sub-struct, embedded by value so the whole state stays one allocation.
type execState struct {
	db *Database
	// o is the caller's options, held by value: the stages read their
	// knobs from it directly. part is the set of stages taking part in
	// this query (bit i: row i of the stages table), fixed at entry.
	o    ExecOptions
	part uint16

	// module is the dynamic access module to activate per attempt; nil
	// when the target is already a resolved plan.
	module *Module
	// root is the resolved plan the Run stage executes; the Activate
	// stage overwrites it per attempt when module is set.
	root *physical.Node
	// planCost is the compile-time predicted cost interval the
	// calibration layer checks observed executions against (zero: the
	// model's own evaluation of the resolved plan substitutes).
	planCost cost.Cost
	// b is the caller's bindings, validated and converted once at the Exec
	// boundary. b.Memory is the memory the next activation and execution
	// run under — initially the caller's MemoryPages, rewritten by the
	// Grant stage (the broker's grant) and the Retry stage (downgrades).
	b *bindings.Bindings

	admit   admitState
	retry   retryState
	degrade degradeState
	reopt   reoptState
	trace   traceState

	// out is the query's account for the workload observatory: the facts
	// each stage notes (executions, start-up time, breaker trips, re-opt
	// and degrade events, the temp ledger) accumulated across attempts and
	// kept on error paths. Nil while the observatory is disabled, which
	// makes every noting site one nil check.
	out *obs.Outcome
}

// admitState belongs to the Admit/Grant pair: the governor snapshot and
// claimed slot (Admit), and the memory claim (Grant).
type admitState struct {
	gov    *governor.Governor
	adm    *governor.Admission
	ticket *governor.Ticket
}

// retryState is the recovery account of the Breaker/Retry pair and the
// Activate stage they steer.
type retryState struct {
	// blocked is the Breaker stage's snapshot of open-circuit relations.
	blocked map[string]bool
	// avoid marks plan nodes failed attempts have poisoned; written by
	// Retry on the first exclusion, consumed by Activate.
	avoid map[*physical.Node]bool
	// rep is the latest activation's report and repB the bindings it
	// decided under; firstPicked and branchSwitched track choose-plan
	// drift across attempts.
	rep            *plan.StartupReport
	repB           *bindings.Bindings
	firstPicked    []*physical.Node
	branchSwitched bool
	// attempt counts executions (1-based inside Retry); retries,
	// backoffs, and trace accumulate the recovery account.
	attempt  int
	retries  int
	backoffs []time.Duration
	trace    []obs.ChoiceTrace
}

// exclude poisons the picked branches for later activations.
func (r *retryState) exclude(picked []*physical.Node) {
	if r.avoid == nil {
		r.avoid = make(map[*physical.Node]bool, len(picked))
	}
	for _, n := range picked {
		r.avoid[n] = true
	}
}

// degradeState belongs to the Degrade stage: cap is the DOP ceiling the
// ladder has imposed (0: none); lastDOP is the DOP the most recent
// execution actually ran with — the rung the ladder steps down from.
type degradeState struct {
	cap     int
	lastDOP int
}

// reoptState belongs to the Reopt stage, live for one invocation of it.
type reoptState struct {
	// rc is the stage's controller, consumed by Activate for corrected
	// bindings and by Run for guards and temps.
	rc *reopt.Controller
	// skipActivate makes Activate pass through: a re-planned or degraded
	// root is already resolved and must not be overwritten by the module.
	skipActivate bool
	// acc is the accountant the Run stage must use — the progress watchdog
	// polls its tuple counter.
	acc *storage.Accountant
}

// traceState is the span tracer: t is nil when tracing is off (the
// disabled fast path is that one pointer comparison) and span the
// innermost open stage span, the parent each stage hangs its children and
// wait states under. Only the query's own goroutine moves span; worker
// goroutines receive their parent span by value.
type traceState struct {
	t    *obs.Trace
	span *obs.Span
}

// pipelineFunc is a composed (sub-)stack: the continuation each stage
// hands the state to.
type pipelineFunc func(ctx context.Context, st *execState) (*ExecResult, error)

// stageFunc is one composable stage: do work, call next (zero or more
// times — Retry calls it per attempt), decorate the result.
type stageFunc func(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error)

// stageAbort wraps an error that must not be retried or reclassified by
// outer stages (an activation refusal rather than a run failure); the
// pipeline entry unwraps it before the caller sees it.
type stageAbort struct{ err error }

func (a *stageAbort) Error() string { return a.err.Error() }
func (a *stageAbort) Unwrap() error { return a.err }

// need is a set of query properties; a stage takes part in a query that
// has every property the stage needs. Participation is data rather than a
// predicate call per stage so that stepping over the six stages a plain
// query sits out costs less than running the three it takes
// (BenchmarkExecPipelineOverhead).
type need uint8

const (
	needGoverned  need = 1 << iota // ExecOptions.Governed
	needResilient                  // ExecOptions.Resilient
	needReopt                      // ExecOptions.Reopt is set, or Adaptive
	needModule                     // the target is a *Module
)

// properties derives the query's property set from its options and target.
func (st *execState) properties() need {
	var has need
	if st.o.Governed {
		has |= needGoverned
	}
	if st.o.Resilient {
		has |= needResilient
	}
	if st.o.Reopt != nil || st.o.Adaptive {
		has |= needReopt
	}
	if st.module != nil {
		has |= needModule
	}
	return has
}

// stages is the canonical stack, outermost first — the only one there is.
// The options select *which stages take part*, never which stack runs, and
// order and pairing are facts of this table: Record is outermost (exactly
// one layer records each query), Admit/Grant and Breaker/Retry need the
// same property each (a slot never exists without a grant), and Retry sits
// above the Activate stage it re-enters.
var stages = [...]struct {
	name  string
	needs need
	stage stageFunc
}{
	// Time the query and stamp its identity on the result.
	{"Record", 0, recordStage},
	// Claim an execution slot from the governor, then draw the memory
	// grant that becomes the binding every later stage sees.
	{"Admit", needGoverned, admitStage},
	{"Grant", needGoverned, grantStage},
	// Snapshot open circuits, then classify failures / downgrade / exclude
	// branches / back off and re-enter the stages below.
	{"Breaker", needResilient, breakerStage},
	{"Retry", needResilient, retryStage},
	// The DOP ladder: below Retry (each whole-query attempt gets a fresh
	// ladder), above Reopt/Activate (a narrower re-run re-resolves the
	// plan). It takes part in every query and passes through serial ones.
	{"Degrade", 0, degradeStage},
	// Cardinality guards and the progress watchdog: below Retry (a retry
	// gets a fresh budget), above Activate (a switch re-enters start-up).
	{"Reopt", needReopt, reoptStage},
	// Start-up-time processing (§4) of a module target.
	{"Activate", needModule, activateStage},
	// Execute the resolved plan.
	{"Run", 0, runStage},
}

// participants[p] is the set of stages (bit i: row i) that take part in a
// query with property set p — the stages table read once, at package init,
// for each of the sixteen property sets.
var participants [1 << 4]uint16

// stack[i] is the continuation "the stages from row i on", composed once
// at package init; stack[0] is the whole pipeline and the last entry, the
// Run stage's unused next, is nil. Each continuation is the single stage
// decorator: it steps over the stages that sit this query out — no span,
// no call — and runs the first that takes part (Run needs nothing, so
// there always is one). With tracing off that costs one pointer
// comparison; with tracing on it opens one stage span, threads it through
// st.trace.span as the parent for everything the stage does, and closes
// it on the way out — so a trace *is* the participating stages made
// visible.
var stack [len(stages) + 1]pipelineFunc

func init() {
	for p := range participants {
		for i, s := range stages {
			if s.needs&^need(p) == 0 {
				participants[p] |= 1 << i
			}
		}
	}
	for from := range stages {
		stack[from] = func(ctx context.Context, st *execState) (*ExecResult, error) {
			i := from + bits.TrailingZeros16(st.part>>from)
			s := &stages[i]
			if st.trace.t == nil {
				return s.stage(ctx, st, stack[i+1])
			}
			parent := st.trace.span
			st.trace.span = st.trace.t.Start(parent, s.name, obs.SpanStage)
			res, err := s.stage(ctx, st, stack[i+1])
			st.trace.span.End()
			st.trace.span = parent
			return res, err
		}
	}
}

// exec runs the stack over the state, unwrapping stage-internal abort
// markers before the caller sees the error. This is the tracer's single
// construction point (TestConstructionPoints pins obs.NewTrace here and in
// internal/obs): when tracing is on — database-wide via EnableTracing or
// per query via ExecOptions.Trace — the query gets a deterministic trace
// ID, every stage below builds the span tree, and the finished record is
// attached to the result. It is also the observatory's one writer: the
// registry is read once, at entry, and the query's account — outcome,
// stats tree, calibration verdicts and sealed trace — is folded into it
// by one Record call on the way out.
func (st *execState) exec(ctx context.Context) (*ExecResult, error) {
	reg := st.db.metrics.Load()
	if reg != nil {
		st.out = &obs.Outcome{}
	}
	if st.o.Trace || st.db.tracing.Load() {
		st.trace.t = obs.NewTrace(st.db.nextTraceID())
	}
	st.part = participants[st.properties()]
	res, err := stack[0](ctx, st)
	if err != nil {
		var abort *stageAbort
		if errors.As(err, &abort) {
			res, err = nil, abort.err
		}
	}
	var rec *obs.TraceRecord
	if st.trace.t != nil {
		rec = st.trace.t.Finish(err)
		if res != nil {
			res.TraceID = rec.ID
			res.Trace = rec
		}
	}
	if reg != nil {
		reg.Record(st.outcome(res, err, rec))
	}
	return res, err
}

// defaultPlanCacheCapacity bounds the shared plan cache; prepared
// statements beyond it evict least-recently-used compiled modules.
const defaultPlanCacheCapacity = 64

// newPlanCache assembles the database's shared plan cache — the single
// construction point (TestConstructionPoints pins plancache.New here and
// inside internal/plancache), so exactly one cache exists per database.
func newPlanCache(capacity int) *plancache.Cache { return plancache.New(capacity) }

// recordStage is the single outermost stage: it times the query, whichever
// stages ran below it, and stamps the query's identity on the result. The
// entry folds the time into the observatory; when that is disabled the
// stage takes no time.
func recordStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	var start time.Time
	if st.out != nil {
		start = time.Now()
	}
	res, err := next(ctx, st)
	if st.out != nil {
		st.out.WallNanos = time.Since(start).Nanoseconds()
	}
	if res != nil {
		res.Tenant = st.o.Tenant
		res.PlanCacheHit = st.o.cacheHit
	}
	return res, err
}

// admitStage claims an execution slot from the governor; without an
// installed governor the stage (and its Grant partner) pass through, so a
// Governed query degrades to its ungoverned behaviour unchanged. The
// governor is snapshotted once, so a concurrent ClearGovernor cannot
// split the Admit/Grant pair across two governors.
func admitStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	gov := st.db.gov
	if gov == nil {
		return next(ctx, st)
	}
	var t0 time.Time
	if st.trace.span != nil {
		t0 = time.Now()
	}
	adm, err := gov.AdmitTenant(ctx, st.o.Tenant)
	if st.trace.span != nil {
		st.trace.span.AddWait(obs.WaitAdmissionQueue, time.Since(t0).Nanoseconds())
	}
	if err != nil {
		return nil, err
	}
	st.admit.gov = gov
	st.admit.adm = adm
	return next(ctx, st)
}

// grantStage draws the memory grant for the admitted query: the broker
// may degrade it below the request, and the grant — not the caller's
// number — becomes the memory binding activation resolves choose-plans
// against (§6.2's graceful degradation). The ticket is released on every
// exit path; AdmissionStats report the negotiation on success.
func grantStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	if st.admit.adm == nil {
		return next(ctx, st)
	}
	var t0 time.Time
	if st.trace.span != nil {
		t0 = time.Now()
	}
	ticket, qctx, err := st.admit.adm.Grant(ctx, st.b.Memory)
	if st.trace.span != nil {
		st.trace.span.AddWait(obs.WaitGrant, time.Since(t0).Nanoseconds())
	}
	if err != nil {
		return nil, err
	}
	defer ticket.Release()
	st.admit.ticket = ticket
	st.b.Memory = ticket.Pages
	res, err := next(qctx, st)
	if err != nil {
		return nil, err
	}
	s := st.admit.gov.Stats()
	res.Admission = &obs.AdmissionStats{
		RequestedPages: ticket.Requested,
		GrantedPages:   ticket.Pages,
		Degraded:       ticket.Degraded,
		QueueWaitNanos: ticket.Wait.Nanoseconds(),
		ShedQueueFull:  s.ShedQueueFull,
		ShedTimeout:    s.ShedTimeout,
	}
	return res, nil
}

// breakerStage snapshots which of the module's relations currently have
// open circuits; they sit outside the choice set for this whole
// execution, and consulting the breaker counts one cooldown step per
// blocked relation.
func breakerStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	if st.module != nil {
		st.retry.blocked = st.db.breaker.BlockedSet(st.module.mod.Relations())
	}
	return next(ctx, st)
}

// retryStage is the retrying fallback executor — the run-time payoff of
// carrying alternatives in the plan. Each attempt re-enters the Activate
// stage below it; a failure's classification decides the recovery
// (transient I/O: same plan; insufficient memory: downgrade the grant and
// exclude the picked branches; permanent faults: exclude the picked
// branches and charge the relation's circuit breaker). Retries pause
// under the exchange workers' backoff schedule (exec.Backoff, as worker
// 0): capped exponential growth with deterministic jitter.
func retryStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	pol := st.o.Policy.withDefaults()
	r := &st.retry
	inj := st.db.injector()
	absorbedBase := inj.Stats().Absorbed

	for r.attempt = 1; ; r.attempt++ {
		if err := qerr.FromContext(ctx.Err()); err != nil {
			return nil, err
		}
		res, err := next(ctx, st)
		if err == nil {
			st.db.recordPlanOutcome(st.root, "")
			res.Retries = r.retries
			res.BranchSwitched = r.branchSwitched
			res.FaultsAbsorbed = inj.Stats().Absorbed - absorbedBase
			res.EffectiveMemoryPages = st.b.Memory * inj.MemoryScale()
			res.Backoffs = r.backoffs
			res.BackoffTotal = 0
			for _, d := range r.backoffs {
				res.BackoffTotal += d
			}
			if r.rep != nil {
				// The successful attempt's start-up decision trace, followed
				// by the recovery decisions that led to it.
				res.Decisions = append(r.rep.Trace, r.trace...)
			}
			return res, nil
		}
		var abort *stageAbort
		if errors.As(err, &abort) {
			// Activation refused (infeasible, circuit-open, unbound
			// variables): not a run failure, nothing to classify or retry.
			return nil, err
		}
		if qerr.Canceled(err) {
			return nil, err
		}
		// Charge the failing relation's circuit breaker before deciding
		// whether to retry, so breakers learn from final attempts and from
		// plans with no alternatives too.
		failedRel := ""
		if rel := qerr.Relation(err); rel != "" && !qerr.Retryable(err) {
			failedRel = rel
			if st.db.recordPlanOutcome(nil, rel) && st.out != nil {
				st.out.BreakerTrips++
			}
		}
		if r.attempt >= pol.MaxAttempts {
			return nil, fmt.Errorf("dynplan: resilient execution gave up after %d attempts: %w", r.attempt, err)
		}
		r.retries++
		var picked []*physical.Node
		if r.rep != nil {
			picked = r.rep.Picked
		}
		var class, response string
		switch {
		case errors.Is(err, qerr.ErrInsufficientMemory):
			class = "insufficient memory"
			if scale := inj.MemoryScale(); scale < 1 {
				// Acknowledge the shrink event: the next activation plans
				// for the memory actually available, so the executor must
				// not discount it a second time.
				st.b.Memory *= scale
				inj.RestoreMemory()
			} else {
				st.b.Memory *= memoryDowngrade
			}
			r.exclude(picked)
			response = fmt.Sprintf("downgraded grant to %.3g pages, excluding picked branches", st.b.Memory)
		case errors.Is(err, qerr.ErrTransientIO):
			// Retry the same plan: the fault-injection substrate heals
			// transient faults after a bounded number of touches, so the
			// retry gets strictly past the page it tripped on.
			class = "transient I/O"
			response = "retrying the same plan"
		default:
			// Permanent fault, operator panic, or an unclassified failure:
			// only a different branch can help.
			if len(picked) == 0 {
				return nil, fmt.Errorf("dynplan: execution failed with no alternative branches to fall back to: %w", err)
			}
			r.exclude(picked)
			class = "permanent fault"
			response = "excluding picked branches"
			if failedRel != "" {
				response += fmt.Sprintf(" (fault charged to %s)", failedRel)
			}
		}
		d := exec.Backoff(pol.Backoff, pol.MaxBackoff, pol.JitterSeed, 0, r.retries)
		r.backoffs = append(r.backoffs, d)
		r.trace = append(r.trace, obs.NewRetryTrace(r.attempt, class, response, d))
		if err := sleepBackoff(ctx, d); err != nil {
			return nil, err
		}
		st.trace.span.AddWait(obs.WaitRetryBackoff, d.Nanoseconds())
	}
}

// degradeStage is the graceful-degradation ladder: parallel execution's
// answer to the paper's premise that a plan must adapt when run-time
// conditions diverge from the ones it was chosen under. A fault that
// escapes an exchange worker's own bounded retries has already proven the
// partition un-runnable at the current width; before the whole-query
// remedies above (memory downgrade, branch switch, full retry) fire, the
// ladder re-runs the query narrower — halving the DOP until it reaches
// serial — because a narrower run re-partitions the data, re-reads
// poisoned pages through healed fault paths, and costs strictly less to
// lose again.
//
// The rungs taken are counted per invocation, i.e. per whole-query retry
// attempt, so a ladder never leaks descent across attempts; the cap it
// imposes (st.degrade.cap) persists, so later attempts do not climb back
// to a width that already failed. Faults the ladder cannot remedy (see
// degradeRung) pass through untouched, preserving the Retry stage's
// classification authority. Serial executions pass through in one branch.
func degradeStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	if !st.o.Parallel || (st.o.Degrade != nil && st.o.Degrade.Disabled) {
		return next(ctx, st)
	}
	var events []obs.DegradeEvent
	if st.out != nil {
		// Every rung counts, including those of a ladder that then fails.
		defer func() { st.out.Degrade = append(st.out.Degrade, events...) }()
	}
	// Each post-decision re-run is wrapped in a rung span named after the
	// ladder step it descends ("dop-halve dop=2"); the first run is not a
	// rung and stays directly under the Degrade span.
	parent := st.trace.span
	var rung *obs.Span
	for {
		res, err := next(ctx, st)
		rung.End()
		st.trace.span = parent
		if err == nil {
			if len(events) > 0 {
				res.Degrade = events
			}
			return res, nil
		}
		var abort *stageAbort
		if errors.As(err, &abort) {
			return nil, err
		}
		if ctx.Err() != nil {
			// The caller's context ended; nothing narrower can run.
			return nil, err
		}
		ev, ok := degradeRung(err, st.degrade.lastDOP, len(events)+1)
		if !ok {
			return nil, err
		}
		events = append(events, ev)
		st.degrade.cap = ev.ToDOP
		if st.trace.t != nil {
			rung = st.trace.t.Start(parent, fmt.Sprintf("%s dop=%d", ev.Rung, ev.ToDOP), obs.SpanRung)
			st.trace.span = rung
		}
	}
}

// degradeRung decides the ladder's answer to one escalated failure of a
// run at dop: the attempt-th rung — halve the DOP, or fall back to serial
// once halving reaches 1 — and true, or false when the fault keeps
// escalating. There is no rung below serial.
//
// The ladder declines faults another stage owns the remedy for:
// cancellation and deadlines (nothing re-runs), admission rejections and
// open breakers (the query never ran / the access path is poisoned),
// insufficient memory (the retry stage's memory downgrade is the cure),
// cardinality violations and watchdog stalls (re-optimization territory).
// What remains — transient and permanent I/O faults and operator panics
// that survived per-worker retry — is exactly what running narrower can
// help: fewer workers touch fewer pages concurrently, and serial execution
// re-reads every page through the healed fault path.
func degradeRung(err error, dop, attempt int) (obs.DegradeEvent, bool) {
	switch {
	case err == nil, dop <= 1,
		qerr.Canceled(err),
		errors.Is(err, qerr.ErrAdmission),
		errors.Is(err, qerr.ErrCircuitOpen),
		errors.Is(err, qerr.ErrInsufficientMemory),
		errors.Is(err, qerr.ErrCardinalityViolation),
		errors.Is(err, qerr.ErrNoProgress):
		return obs.DegradeEvent{}, false
	}
	ev := obs.DegradeEvent{Attempt: attempt, Rung: "dop-halve", FromDOP: dop, ToDOP: dop / 2,
		Class: qerr.Class(err), Error: err.Error()}
	if ev.ToDOP <= 1 {
		ev.Rung, ev.ToDOP = "serial-fallback", 1
	}
	return ev, true
}

// reoptStage is run-time adaptation — mid-query re-optimization and the
// paper's §7 run-time decisions, one loop. Per invocation (i.e. per retry
// attempt above it) it creates one controller owning the re-opt budget and
// the spooled temporaries, arms the per-query deadline, and loops: run the
// plan under a progress watchdog with cardinality guards armed; on a guard
// violation, remedy and re-run. What differs between the two is only when
// the observation is forced: ExecOptions.Reopt waits for a materialization
// the plan needed anyway to miss its band; ExecOptions.Adaptive evaluates
// each base relation the resolved plan scans into a temporary before the
// first tuple, one per attempt, so the remedy decides every join over
// observed cardinalities. The remedies escalate —
//
//   - switch: re-enter the Activate stage below, which re-resolves the
//     dynamic plan's choose-plans under the observed (corrected)
//     selectivities and splices the temporaries in;
//   - replan: re-enter the optimizer with each temporary registered as a
//     base relation of its observed cardinality, then run the fresh plan
//     (Activate passes through — the root is already resolved);
//   - degrade: budget exhausted; finish the current plan over the
//     temporaries with guards disarmed.
//
// The temporaries are released exactly once on every path by the deferred
// Finish. Non-violation errors pass through untouched, so the Retry stage
// above keeps its classification authority.
func reoptStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	// A previous controller (an earlier retry attempt) may have left a
	// re-planned or degraded root referencing temporaries it released;
	// re-entering Activate below re-resolves the module onto live state.
	st.reopt.skipActivate = false
	var pol ReoptPolicy
	if st.o.Reopt != nil {
		pol = *st.o.Reopt
	}
	rp := reopt.Policy{
		Config:            st.db.sys.cfg,
		Params:            st.db.sys.params,
		MaxAttempts:       pol.MaxAttempts,
		MaxPlanningTime:   pol.MaxPlanningTime,
		Eager:             st.o.Adaptive,
		NoProgressTimeout: pol.NoProgressTimeout,
		Trace:             st.trace.t,
		Span:              st.trace.span,
	}
	if pol.Query != nil {
		rp.Query = pol.Query.q
		rp.Config.FinalOrder = pol.Query.OrderBy()
	}
	rc := reopt.NewController(rp)
	st.reopt.rc = rc
	defer func() {
		st.reopt.rc = nil
		st.reopt.acc = nil
		rc.Finish()
		if o := st.out; o != nil {
			// The temp ledger counts releases where they happen, at Finish.
			created, released := rc.TempBalance()
			o.TempsCreated += int64(created)
			o.TempsReleased += int64(released)
			if a := rc.Account(); a != nil {
				o.Reopt = append(o.Reopt, a.Events...)
				o.Stalls += int64(a.Stalls)
			}
		}
	}()
	// One accountant spans every attempt: the result must account the
	// violated attempt's partial work and the spool writes, not just the
	// final plan's — the benchmarks report re-optimization's *net* benefit.
	// The watchdog snapshots the tuple counter at each attempt's start, so
	// accumulation never masks a stall.
	st.reopt.acc = &storage.Accountant{}
	// Every execution attempt gets its own span under the Reopt stage, so
	// Activate/Run appear exactly once per attempt and the attempts (and
	// the replans between them — spans the controller opens) read off the
	// tree in order.
	parent := st.trace.span
	for attempt := 1; ; attempt++ {
		var asp *obs.Span
		if st.trace.t != nil {
			asp = st.trace.t.Start(parent, fmt.Sprintf("reopt-attempt-%d", attempt), obs.SpanAttempt)
			st.trace.span = asp
		}
		attemptCtx, stopWatchdog := rc.StartWatchdog(ctx, st.reopt.acc)
		res, err := next(attemptCtx, st)
		stopWatchdog()
		asp.End()
		st.trace.span = parent
		if err == nil {
			res.Reopt = rc.Account()
			return res, nil
		}
		var v *reopt.Violation
		if !errors.As(err, &v) {
			return nil, err
		}
		canSwitch := st.module != nil && !st.reopt.skipActivate
		canReplan := rp.Query != nil
		switch rc.Decide(v, canSwitch, canReplan) {
		case reopt.RemedySwitch:
			rc.NoteSwitch(v, "re-activating surviving alternatives under corrected bindings")
		case reopt.RemedyReplan:
			forced, pc, rerr := rc.Replan(ctx, st.b)
			if rerr != nil {
				return nil, rerr
			}
			st.root = forced
			st.planCost = pc
			st.reopt.skipActivate = true
			if st.o.cacheKey != nil {
				// The cached module's estimates just forced a re-plan; drop
				// the entry so the next prepared execution compiles against
				// the corrected picture instead of re-tripping the guard.
				st.db.planCache.Invalidate(*st.o.cacheKey)
			}
		default:
			st.root = rc.DegradeRoot(st.root, "re-optimization budget exhausted; finishing the current plan")
			st.reopt.skipActivate = true
		}
	}
}

// activateStage performs start-up-time processing (§4): choose-plan
// decision procedures resolve against the current grant (st.b.Memory) and
// bindings, avoiding branches failed attempts poisoned and relations
// whose circuits are open. When exclusions alone leave no feasible plan,
// they are forgiven (a transiently-poisoned branch may have healed);
// when the circuit breaker alone leaves none, the query fails fast with
// ErrCircuitOpen rather than re-probing a poisoned access path.
func activateStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	if st.reopt.skipActivate {
		// The Reopt stage installed a re-planned or degraded root that is
		// already resolved; activation would overwrite it.
		return next(ctx, st)
	}
	r := &st.retry
	opts := plan.StartupOptions{Params: st.db.sys.params, Usage: st.module.stats}
	if len(r.avoid) > 0 || len(r.blocked) > 0 {
		avoid, blocked := r.avoid, r.blocked
		opts.Avoid = func(n *physical.Node) bool {
			return avoid[n] || (n.Rel != "" && blocked[n.Rel])
		}
	}
	ib := st.b
	if st.reopt.rc != nil {
		// Observed selectivities correct the *cost* side of activation only;
		// execution keeps the caller's bindings — predicate literals are
		// selectivity × domain, and moving them would change the answer.
		ib = st.reopt.rc.CorrectBindings(ib)
	}
	var actStart time.Time
	if st.out != nil {
		actStart = time.Now()
	}
	rep, err := st.module.mod.Activate(ib, opts)
	if errors.Is(err, plan.ErrInfeasible) && len(r.avoid) > 0 {
		// Every alternative has failed at least once; forgive the
		// exclusions (breaker-blocked relations stay excluded) and try the
		// remaining choice set again.
		clear(r.avoid)
		rep, err = st.module.mod.Activate(ib, opts)
	}
	if st.out != nil {
		// Start-up-time processing is the cost a plan-cache hit still pays;
		// the per-query total is what makes "activation ≪ compilation"
		// observable.
		st.out.Activated = true
		st.out.ActivationNanos += time.Since(actStart).Nanoseconds()
	}
	if errors.Is(err, plan.ErrInfeasible) && len(r.blocked) > 0 {
		// The circuit breaker alone leaves no feasible plan: fail fast
		// instead of re-probing a poisoned access path.
		return nil, &stageAbort{err: fmt.Errorf("dynplan: circuit breaker excludes %v and no alternative plan remains: %w: %w",
			slices.Sorted(maps.Keys(r.blocked)), qerr.ErrCircuitOpen, err)}
	}
	if err != nil {
		return nil, &stageAbort{err: err}
	}
	if r.attempt <= 1 {
		r.firstPicked = rep.Picked
	} else if !r.branchSwitched && !slices.Equal(r.firstPicked, rep.Picked) {
		r.branchSwitched = true
	}
	r.rep, r.repB = rep, ib
	st.root = rep.Chosen
	if st.reopt.rc != nil {
		// Splice spooled temporaries in place of already-observed base
		// subplans: the switched-to plan resumes from the finished work.
		st.root = st.reopt.rc.Rewrite(st.root)
	}
	st.planCost = st.module.mod.PlanCost()
	res, err := next(ctx, st)
	if err == nil && len(res.Decisions) == 0 {
		// Attach the start-up decision trace; a Retry stage above replaces
		// this with the full trace-plus-recovery account.
		res.Decisions = rep.Trace
	}
	return res, err
}

// engine assembles the executor over the database's storage substrate for
// one execution, with that execution's own accountant, injector snapshot,
// and metrics window.
func (db *Database) engine(acc *storage.Accountant, inj *storage.Injector, collector *obs.Collector) *exec.DB {
	return &exec.DB{
		Catalog: db.sys.cat,
		Store:   db.store,
		Indexes: db.indexes,
		Acc:     acc,
		Faults:  inj,
		Obs:     collector,
		Wrap:    db.wrap,
	}
}

// runStage is the terminal stage, the one executor there is: it compiles
// the resolved plan into Volcano iterators over the simulated store, runs
// it under the context, and assembles the base ExecResult — I/O account,
// per-operator stats tree, plan digest, and interval-calibration verdicts.
// Every attempt that runs the plan notes one execution for the
// observatory (an attempt spent observing does not). The DOP decision
// lives here rather than in a stage of its own: it is part of resolving
// the plan against the grant, exactly like choose-plan resolution.
func runStage(ctx context.Context, st *execState, _ pipelineFunc) (*ExecResult, error) {
	db := st.db
	acc := st.reopt.acc
	if acc == nil {
		acc = &storage.Accountant{}
	}
	// Each execution collects into its own fresh window: the stats tree
	// describes this run, and concurrent executions of the same plan never
	// share counters. The injector pointer is snapshotted once, so a
	// concurrent InjectFaults/ClearFaults cannot swap it mid-query.
	var collector *obs.Collector
	if db.observing.Load() || st.out != nil {
		collector = obs.NewCollector()
	}
	inj := db.injector()
	e := db.engine(acc, inj, collector)
	e.Ctx, e.Trace, e.Span = ctx, st.trace.t, st.trace.span
	ib, mem := st.b, st.b.Memory
	if rc := st.reopt.rc; rc != nil {
		// The Reopt stage's temporaries, eager observation, and cardinality
		// guards. Variants to observe and guard bands are priced under the
		// corrected bindings; every execution runs under the caller's
		// bindings, untouched.
		e.Temps = rc.Temps()
		model := physical.NewModel(db.sys.params)
		// Eager observation picks access paths among the module's variants —
		// unless failed attempts have poisoned some of them: the activated
		// plan already avoids those, so then only its own scans are offered.
		dag := st.root
		if st.module != nil && len(st.retry.avoid) == 0 {
			dag = st.module.mod.Root()
		}
		if err := rc.Observe(e, model, dag, st.root, ib); err != nil {
			return nil, err
		}
		var err error
		if e.Guards, err = rc.Guard(model, ib, st.root, e); err != nil {
			return nil, err
		}
	}
	var pe *obs.ParallelExec
	var dop, maxDOP int
	var parReason string
	if st.o.Parallel {
		// The DOP decision is start-up-time processing in miniature: the
		// grant funds the worker count, and the cost model must price the
		// parallel plan below serial before any goroutine spawns — degree
		// of parallelism as a least-expected-cost alternative, exactly how
		// low-memory choose-plan branches are selected.
		var err error
		if dop, maxDOP, parReason, err = chooseDOP(db, st.root, ib, st.o.MaxDOP); err != nil {
			return nil, err
		}
		if cap := st.degrade.cap; cap > 0 && dop > cap {
			// The degradation ladder has capped the width: a fault already
			// escaped per-worker retry at the wider DOP this query ran with.
			dop = cap
			parReason = "degraded"
		}
		st.degrade.lastDOP = dop
		pe = &obs.ParallelExec{}
		if dop > 1 {
			e.Parallel = dop
			e.Retry = st.o.WorkerRetry
			e.Par = pe
		}
	}
	if rep := st.chosen(ib); rep != nil {
		e.Cards = rep.Cards // start-up's predicted rows size the buffers
	}
	absorbedBefore := inj.Stats().Absorbed
	rows, schema, err := e.Run(st.root, ib)
	if st.out != nil {
		st.out.Executions++
	}
	if err != nil {
		return nil, err
	}
	out := &ExecResult{
		Columns:              schema,
		Rows:                 rows, // the caller's: Run returned a join's rows as built, or copied stored ones
		SeqPageReads:         acc.SeqPageReads(),
		RandPageReads:        acc.RandPageReads(),
		PageWrites:           acc.PageWrites(),
		TupleOps:             acc.TupleOps(),
		FaultsAbsorbed:       inj.Stats().Absorbed - absorbedBefore,
		EffectiveMemoryPages: mem * inj.MemoryScale(),
	}
	if pe != nil {
		out.Parallel = pe.Stats(dop, maxDOP, mem, mem/float64(max(dop, 1)), parReason)
	}
	if st.out == nil {
		out.Operators = collector.Tree(st.root)
		return out, nil
	}
	// Annotate the resolved tree with the cost model's predicted
	// cardinalities under this execution's bindings, then compare each
	// against the observed actuals. When no compile-time plan interval
	// rode along, the model's own evaluation of the resolved plan serves as
	// the cost prediction.
	pb := ib
	if rc := st.reopt.rc; rc != nil {
		pb = rc.CorrectBindings(ib)
	}
	predicted, err := st.predict(collector, pb)
	if err != nil {
		return nil, err
	}
	planCost := st.planCost
	if planCost.Hi <= 0 {
		planCost = cost.Point(predicted)
	}
	out.Operators = collector.Tree(st.root)
	out.PlanDigest = obs.Digest(st.root.AppendFormat(make([]byte, 0, 4096))) // Format's digest, on the stack
	out.Calibration = obs.Calibrate(out.Operators, planCost.Lo, planCost.Hi, out.SimulatedSeconds(db.sys.params))
	return out, nil
}

// The grant funds parallelism: one worker per parallelPartitionPages
// granted pages, so a degraded grant throttles the worker count down to
// serial the same way it steers choose-plan onto low-memory branches
// (§6.2's graceful degradation applied to DOP). parallelMaxDOPDefault
// caps the count when ExecOptions.MaxDOP is zero.
const (
	parallelPartitionPages = 16
	parallelMaxDOPDefault  = 4
)

// chooseDOP selects the degree of parallelism for a resolved plan. Two
// gates must pass: the memory grant must fund at least two workers
// (reason "grant-limited" otherwise), and the cost model must price the
// dop-way parallel execution below serial (reason "cost" otherwise) —
// exchange startup and per-row transfer charges make serial cheaper for
// tiny inputs. When both pass, the reason is "grant".
func chooseDOP(db *Database, root *physical.Node, ib *bindings.Bindings, maxCap int) (dop, maxDOP int, reason string, err error) {
	maxDOP = maxCap
	if maxDOP <= 0 {
		maxDOP = parallelMaxDOPDefault
	}
	dop = int(ib.Memory / parallelPartitionPages)
	if dop > maxDOP {
		dop = maxDOP
	}
	if dop <= 1 {
		return 1, maxDOP, "grant-limited", nil
	}
	prog, err := physical.Lower(0, 0, root)
	if err != nil {
		return 0, 0, "", fmt.Errorf("dynplan: pricing parallel execution: %w", err)
	}
	p := &db.sys.params
	e := prog.At(p, ib)
	if prog.ParallelCost(p, &e, dop) >= e.Cost[len(e.Cost)-1] {
		return 1, maxDOP, "cost", nil
	}
	return dop, maxDOP, "grant", nil
}

// chosen returns the latest activation's report if it chose the plan about
// to run under b: not for a static target, a re-planned or rewritten root.
func (st *execState) chosen(b *bindings.Bindings) *plan.StartupReport {
	if rep := st.retry.rep; rep != nil && rep.Chosen == st.root && st.retry.repB == b {
		return rep
	}
	return nil
}

// predict attaches the cost model's predicted output cardinalities under
// b to the resolved plan and returns the plan's predicted cost. The
// activation that chose the plan under b has both already; any other plan
// — a static target, a re-planned or rewritten root, bindings
// re-optimization corrected — is lowered and swept once.
func (st *execState) predict(c *obs.Collector, b *bindings.Bindings) (float64, error) {
	if rep := st.chosen(b); rep != nil {
		c.Predict(rep.Cards)
		return rep.ChosenCost, nil
	}
	prog, err := physical.Lower(0, 0, st.root)
	if err != nil {
		return 0, fmt.Errorf("dynplan: predicting cardinalities: %w", err)
	}
	e := prog.At(&st.db.sys.params, b)
	c.Predict(e.Card)
	return e.Cost[len(e.Cost)-1], nil
}
