package dynplan

// The execution pipeline: Database.Exec routes every query through the one
// stack of composable stages assembled here, so admission, memory grants,
// the remedies for a failed run, choose-plan activation, execution, and
// workload recording exist exactly once. The paper's start-up-time
// processing (§4) is the Activate stage: the memory binding it resolves
// choose-plans against is whatever the Admit stage's grant actually
// obtained, not what the caller asked for.
//
// A stage is a middleware function over the shared per-query execState;
// the innermost stage runs the resolved plan. There is one stack, composed
// once at package init in the canonical order
//
//	Record → Admit → Remedy → Activate → Run
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
// root (pre-resolved) identifies the plan. Sub-structs are embedded by
// value so the whole state stays one allocation.
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
	// Admit stage (the broker's grant) and the retry remedy (downgrades).
	b *bindings.Bindings
	// ticket is the Admit stage's memory grant; nil when no governor
	// admitted the query.
	ticket *governor.Ticket

	remedy remedyState
	reopt  reoptState
	trace  traceState

	// out is the query's account for the workload observatory: the facts
	// each stage notes (executions, start-up time, breaker trips, re-opt
	// events, the temp ledger) accumulated across attempts and kept on
	// error paths. Nil while the observatory is disabled, which
	// makes every noting site one nil check.
	out *obs.Outcome
}

// remedyState is the recovery account of the Remedy stage and the
// Activate and Run stages it steers.
type remedyState struct {
	// blocked is the snapshot of open-circuit relations a Resilient query
	// takes at entry.
	blocked map[string]bool
	// avoid marks plan nodes failed attempts have poisoned; written by the
	// retry remedy on the first exclusion, consumed by Activate.
	avoid map[*physical.Node]bool
	// rep is the latest activation's report and repB the bindings it
	// decided under; firstPicked and branchSwitched track choose-plan
	// drift across attempts.
	rep            *plan.StartupReport
	repB           *bindings.Bindings
	firstPicked    []*physical.Node
	branchSwitched bool
	// attempt counts whole-query attempts (1-based inside Remedy);
	// retries, backoffs, and trace accumulate the recovery account.
	attempt  int
	retries  int
	backoffs []time.Duration
	trace    []obs.ChoiceTrace
}

// exclude poisons the picked branches for later activations.
func (r *remedyState) exclude(picked []*physical.Node) {
	if r.avoid == nil {
		r.avoid = make(map[*physical.Node]bool, len(picked))
	}
	for _, n := range picked {
		r.avoid[n] = true
	}
}

// reoptState is the live re-optimization controller of a Reopt or
// Adaptive query, armed afresh for every narrowed or retried run.
type reoptState struct {
	// rc is the controller, consumed by Activate for corrected bindings
	// and by Run for guards and temps.
	rc *reopt.Controller
	// skipActivate makes Activate pass through: a re-planned or degraded
	// root is already resolved and must not be overwritten by the module.
	skipActivate bool
	// acc is the accountant the Run stage must use: one tally spans the
	// violated runs, the spool writes and the final plan.
	acc *storage.Accountant
}

// traceState is the span tracer: t is nil when tracing is off (the
// disabled fast path is that one pointer comparison) and span the
// innermost open stage span, the parent each stage hangs its children and
// wait states under.
type traceState struct {
	t    *obs.Trace
	span *obs.Span
}

// pipelineFunc is a composed (sub-)stack: the continuation each stage
// hands the state to.
type pipelineFunc func(ctx context.Context, st *execState) (*ExecResult, error)

// stageFunc is one composable stage: do work, call next (zero or more
// times — Remedy calls it per run), decorate the result.
type stageFunc func(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error)

// stageAbort wraps an error no remedy may answer (an activation refusal
// rather than a run failure); the pipeline entry unwraps it before the
// caller sees it.
type stageAbort struct{ err error }

func (a *stageAbort) Error() string { return a.err.Error() }
func (a *stageAbort) Unwrap() error { return a.err }

// need is a set of query properties; a stage takes part in a query that
// has every property the stage needs. Participation is data rather than a
// predicate call per stage so that stepping over the stages a plain query
// sits out costs less than running them (BenchmarkExecPipelineOverhead).
type need uint8

const (
	needGoverned need = 1 << iota // ExecOptions.Governed
	needRemedy                    // Resilient, Reopt or Adaptive
	needModule                    // the target is a *Module
)

// properties derives the query's property set from its options and target.
func (st *execState) properties() need {
	var has need
	if st.o.Governed {
		has |= needGoverned
	}
	if st.o.Resilient || st.o.Reopt != nil || st.o.Adaptive {
		has |= needRemedy
	}
	if st.module != nil {
		has |= needModule
	}
	return has
}

// stages is the canonical stack, outermost first — the only one there is.
// The options select *which stages take part*, never which stack runs, and
// order is a fact of this table: Record is outermost (exactly one layer
// records each query), and Remedy sits above the Activate stage it
// re-enters.
var stages = [...]struct {
	name  string
	needs need
	stage stageFunc
}{
	// Time the query and stamp its identity on the result.
	{"Record", 0, recordStage},
	// Claim an execution slot and the memory grant that becomes the
	// binding every later stage sees.
	{"Admit", needGoverned, admitStage},
	// Run the stages below and answer each failure: re-optimize, or retry
	// the whole query.
	{"Remedy", needRemedy, remedyStage},
	// Start-up-time processing (§4) of a module target.
	{"Activate", needModule, activateStage},
	// Execute the resolved plan.
	{"Run", 0, runStage},
}

// participants[p] is the set of stages (bit i: row i) that take part in a
// query with property set p — the stages table read once, at package init,
// for each of the eight property sets.
var participants [1 << 3]uint16

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

// admitStage passes the governor's one gate: the tenant's, a shared
// execution slot, then the memory grant. The broker may degrade the grant
// below the request, and the grant becomes the memory binding activation
// resolves choose-plans against (§6.2's graceful degradation). Without an
// installed governor the stage passes through. The ticket is released on
// every exit path; AdmissionStats report the negotiation on success.
func admitStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	gov := st.db.gov
	if gov == nil {
		return next(ctx, st)
	}
	var t0 time.Time
	if st.trace.span != nil {
		t0 = time.Now()
	}
	ticket, err := gov.Acquire(ctx, st.o.Tenant, st.b.Memory)
	if err != nil {
		// A shed query's whole wait is charged to the queue.
		if st.trace.span != nil {
			st.trace.span.AddWait(obs.WaitAdmissionQueue, time.Since(t0).Nanoseconds())
		}
		return nil, err
	}
	if st.trace.span != nil {
		st.trace.span.AddWait(obs.WaitAdmissionQueue, ticket.SlotWait.Nanoseconds())
		st.trace.span.AddWait(obs.WaitGrant, (ticket.Wait - ticket.SlotWait).Nanoseconds())
	}
	defer ticket.Release()
	st.ticket = ticket
	st.b.Memory = ticket.Pages
	res, err := next(ctx, st)
	if err != nil {
		return nil, err
	}
	res.Admission = &obs.AdmissionStats{
		RequestedPages: ticket.Requested,
		GrantedPages:   ticket.Pages,
		Degraded:       ticket.Degraded,
		QueueWaitNanos: ticket.Wait.Nanoseconds(),
	}
	return res, nil
}

// remedyStage is the one remedy loop — the paper's deferred decision (§4,
// §7) taken again once a run has shown what the first one missed. It runs
// the stages below, one attempt span per run, and hands each failure to the
// first remedy that owns it:
//
//   - re-optimize (Reopt or Adaptive): the live controller answers a
//     cardinality violation (see reoptimize); a failed re-plan falls
//     through to the retry.
//   - retry (Resilient): the failure's class decides the recovery (see
//     retry).
//
// A retried run gets a fresh re-optimization controller.
func remedyStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	r := &st.remedy
	var pol RetryPolicy
	var inj *storage.Injector
	var absorbedBase int64
	if st.o.Resilient {
		if st.module != nil {
			// Open circuits sit outside the choice set for the whole
			// execution; consulting the breaker counts one cooldown step per
			// blocked relation.
			r.blocked = st.db.breaker.BlockedSet(st.module.mod.Relations())
		}
		if err := qerr.FromContext(ctx.Err()); err != nil {
			return nil, err
		}
		pol = st.o.Policy.withDefaults()
		inj = st.db.injector()
		absorbedBase = inj.Stats().Absorbed
	}
	defer st.finishReopt()
	st.armReopt()
	parent := st.trace.span
	r.attempt = 1
	for run := 1; ; run++ {
		var asp *obs.Span
		if st.trace.t != nil {
			asp = st.trace.t.Start(parent, fmt.Sprintf("attempt-%d", run), obs.SpanAttempt)
			st.trace.span = asp
		}
		res, err := next(ctx, st)
		asp.End()
		st.trace.span = parent
		if err == nil {
			if rc := st.reopt.rc; rc != nil {
				res.Reopt = rc.Account()
			}
			if st.o.Resilient {
				st.db.recordPlanOutcome(st.root, "")
				res.Retries = r.retries
				res.BranchSwitched = r.branchSwitched
				res.FaultsAbsorbed = inj.Stats().Absorbed - absorbedBase
				res.EffectiveMemoryPages = st.b.Memory * inj.MemoryScale()
				res.Backoffs = r.backoffs
				for _, d := range r.backoffs {
					res.BackoffTotal += d
				}
				if r.rep != nil {
					// The successful attempt's start-up decision trace,
					// followed by the recovery decisions that led to it.
					res.Decisions = append(r.rep.Trace, r.trace...)
				}
			}
			return res, nil
		}
		var abort *stageAbort
		if errors.As(err, &abort) {
			// Activation refused (infeasible, circuit-open, unbound
			// variables): not a run failure, nothing to remedy.
			return nil, err
		}
		var v *reopt.Violation
		if st.reopt.rc != nil && errors.As(err, &v) {
			if err = st.reoptimize(ctx, v); err == nil {
				continue
			}
		}
		if !st.o.Resilient {
			return nil, err
		}
		if err := st.retry(ctx, pol, inj, err); err != nil {
			return nil, err
		}
		r.attempt++
		st.armReopt()
	}
}

// reoptimize answers a cardinality violation with the live controller's
// remedy, then the query runs again: switch (re-enter Activate under the
// observed selectivities, temporaries spliced in), re-plan (re-enter the
// optimizer with each temporary as a base relation; Activate passes
// through), or, budget exhausted, finish the current plan over the
// temporaries with guards disarmed. It returns the re-plan's error.
func (st *execState) reoptimize(ctx context.Context, v *reopt.Violation) error {
	rc := st.reopt.rc
	canSwitch := st.module != nil && !st.reopt.skipActivate
	canReplan := st.o.Reopt != nil && st.o.Reopt.Query != nil
	switch rc.Decide(v, canSwitch, canReplan) {
	case reopt.RemedySwitch:
		rc.NoteSwitch(v, "re-activating surviving alternatives under corrected bindings")
	case reopt.RemedyReplan:
		forced, pc, err := rc.Replan(ctx, st.b)
		if err != nil {
			return err
		}
		st.root = forced
		st.planCost = pc
		st.reopt.skipActivate = true
		if st.o.cacheKey != nil {
			// The cached module's estimates just forced a re-plan; drop the
			// entry so the next prepared execution compiles against the
			// corrected picture instead of re-tripping the guard.
			st.db.planCache.Invalidate(*st.o.cacheKey)
		}
	default:
		st.root = rc.DegradeRoot(st.root, "re-optimization budget exhausted; finishing the current plan")
		st.reopt.skipActivate = true
	}
	return nil
}

// retry prepares the whole-query retry after a failed attempt: it charges
// the failing relation's circuit breaker, then lets the failure's class
// decide the recovery (transient I/O: same plan; insufficient memory:
// downgrade the grant and exclude the picked branches; permanent faults:
// exclude the picked branches), and sleeps the policy's backoff. A
// non-nil return is final.
func (st *execState) retry(ctx context.Context, pol RetryPolicy, inj *storage.Injector, err error) error {
	r := &st.remedy
	if qerr.Canceled(err) {
		return err
	}
	// Charge the failing relation's circuit breaker before deciding whether
	// to retry, so breakers learn from final attempts and from plans with no
	// alternatives too.
	failedRel := ""
	if rel := qerr.Relation(err); rel != "" && !qerr.Retryable(err) {
		failedRel = rel
		if st.db.recordPlanOutcome(nil, rel) && st.out != nil {
			st.out.BreakerTrips++
		}
	}
	if r.attempt >= pol.MaxAttempts {
		return fmt.Errorf("dynplan: resilient execution gave up after %d attempts: %w", r.attempt, err)
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
			// Acknowledge the shrink event: the next activation plans for the
			// memory actually available, so the executor must not discount
			// it a second time.
			st.b.Memory *= scale
			inj.RestoreMemory()
		} else {
			st.b.Memory *= memoryDowngrade
		}
		r.exclude(picked)
		response = fmt.Sprintf("downgraded grant to %.3g pages, excluding picked branches", st.b.Memory)
	case errors.Is(err, qerr.ErrTransientIO):
		// Retry the same plan: the fault-injection substrate heals transient
		// faults after a bounded number of touches, so the retry gets
		// strictly past the page it tripped on.
		class = "transient I/O"
		response = "retrying the same plan"
	default:
		// Permanent fault, operator panic, or an unclassified failure: only
		// a different branch can help.
		if len(picked) == 0 {
			return fmt.Errorf("dynplan: execution failed with no alternative branches to fall back to: %w", err)
		}
		r.exclude(picked)
		class = "permanent fault"
		response = "excluding picked branches"
		if failedRel != "" {
			response += fmt.Sprintf(" (fault charged to %s)", failedRel)
		}
	}
	d := backoff(pol.Backoff, pol.MaxBackoff, pol.JitterSeed, r.retries)
	r.backoffs = append(r.backoffs, d)
	r.trace = append(r.trace, obs.NewRetryTrace(r.attempt, class, response, d))
	if err := sleepBackoff(ctx, d); err != nil {
		return err
	}
	st.trace.span.AddWait(obs.WaitRetryBackoff, d.Nanoseconds())
	return qerr.FromContext(ctx.Err())
}

// backoff is the pause before the retry-th retry (retry ≥ 1): base
// doubled per retry and capped at maxBackoff, then equal-jittered to half
// its nominal value plus a remainder hashed from (seed, retry), so a
// schedule reproduces under a fixed seed with no random state. A
// non-positive base retries immediately.
func backoff(base, maxBackoff time.Duration, seed int64, retry int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base << uint(min(retry-1, 16))
	if d > maxBackoff {
		d = maxBackoff
	}
	half := int64(d / 2)
	h := mix64(uint64(seed))
	h = mix64(h + 0x9e3779b97f4a7c15) // stream 0's step, kept so recorded schedules reproduce
	h = mix64(h + 0x9e3779b97f4a7c15 + uint64(retry))
	u := float64(h>>11) / float64(1<<53)
	return time.Duration(half + int64(u*float64(half+1)))
}

// mix64 is splitmix64's finalizer: every input bit flips about half the
// output bits, so (seed, retry) one apart hash to unrelated fractions.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// armReopt gives a Reopt or Adaptive query a fresh controller, owning the
// re-opt budget and temporaries of a run and the re-runs that answer its
// violations. One accountant spans those runs, so the result accounts the
// violated runs' work and the spool writes, not just the final plan's.
func (st *execState) armReopt() {
	st.finishReopt()
	if st.o.Reopt == nil && !st.o.Adaptive {
		return
	}
	var pol ReoptPolicy
	if st.o.Reopt != nil {
		pol = *st.o.Reopt
	}
	rp := reopt.Policy{
		Config:          st.db.sys.cfg,
		Params:          st.db.sys.cfg.Params,
		MaxAttempts:     pol.MaxAttempts,
		MaxPlanningTime: pol.MaxPlanningTime,
		Eager:           st.o.Adaptive,
		Trace:           st.trace.t,
		Span:            st.trace.span,
	}
	if pol.Query != nil {
		rp.Query = pol.Query.q
		rp.Config.FinalOrder = pol.Query.OrderBy()
	}
	// skipActivate resets: a previous controller's re-planned or degraded
	// root references temporaries it released.
	st.reopt = reoptState{rc: reopt.NewController(rp), acc: &storage.Accountant{}}
}

// finishReopt releases the live controller's temporaries and notes its
// account on the query's outcome.
func (st *execState) finishReopt() {
	rc := st.reopt.rc
	if rc == nil {
		return
	}
	st.reopt = reoptState{}
	rc.Finish()
	if o := st.out; o != nil {
		created, released := rc.TempBalance()
		o.TempsCreated += int64(created)
		o.TempsReleased += int64(released)
		o.Reopt = append(o.Reopt, rc.Events()...)
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
		// Re-optimization installed a re-planned or degraded root that is
		// already resolved; activation would overwrite it.
		return next(ctx, st)
	}
	r := &st.remedy
	opts := plan.StartupOptions{Params: st.db.sys.cfg.Params, Usage: st.module.stats}
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
		// Attach the start-up decision trace; the Remedy stage of a
		// Resilient query replaces this with the full trace-plus-recovery
		// account.
		res.Decisions = rep.Trace
	}
	return res, err
}

// engine assembles the executor over the database's storage substrate for
// one execution, with that execution's own accountant and injector
// snapshot, metered when meter is set.
func (db *Database) engine(acc *storage.Accountant, inj *storage.Injector, meter bool) *exec.DB {
	return &exec.DB{
		Catalog: db.sys.cat,
		Store:   db.store,
		Indexes: db.indexes,
		Acc:     acc,
		Faults:  inj,
		Meter:   meter,
		Wrap:    db.wrap,
	}
}

// runStage is the terminal stage, the one executor there is: it compiles
// the resolved plan into Volcano iterators over the simulated store, runs
// it under the context, and assembles the base ExecResult — I/O account,
// per-operator stats tree, plan digest, and interval-calibration verdicts.
// Every attempt that runs the plan notes one execution for the
// observatory (an attempt spent observing does not).
func runStage(ctx context.Context, st *execState, _ pipelineFunc) (*ExecResult, error) {
	db := st.db
	acc := st.reopt.acc
	if acc == nil {
		acc = &storage.Accountant{}
	}
	// A metered run returns its own stats tree: it describes this run, and
	// concurrent executions of the same plan never share counters. The
	// injector pointer is snapshotted once, so a concurrent InjectFaults
	// cannot swap it mid-query.
	inj := db.injector()
	e := db.engine(acc, inj, db.observing.Load() || st.out != nil)
	e.Ctx = ctx
	ib, mem := st.b, st.b.Memory
	if rc := st.reopt.rc; rc != nil {
		// The re-optimization controller's temporaries, eager observation,
		// and cardinality guards. Variants to observe and guard bands are priced under the
		// corrected bindings; every execution runs under the caller's
		// bindings, untouched.
		e.Temps = rc.Temps()
		// Eager observation picks access paths among the module's variants —
		// unless failed attempts have poisoned some of them: the activated
		// plan already avoids those, so then only its own scans are offered.
		dag := st.root
		if st.module != nil && len(st.remedy.avoid) == 0 {
			dag = st.module.mod.Root()
		}
		if err := rc.Observe(e, dag, st.root, ib); err != nil {
			return nil, err
		}
		var err error
		if e.Guards, err = rc.Guard(ib, st.root, e); err != nil {
			return nil, err
		}
	}
	if rep := st.chosen(ib); rep != nil {
		e.Cards = rep.Cards // start-up's predicted rows size the buffers
	}
	absorbedBefore := inj.Stats().Absorbed
	rows, schema, ops, err := e.Run(st.root, ib)
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
	if len(ops) > 0 {
		out.Operators = &ops[len(ops)-1] // the root's, last in post-order
	}
	if st.out == nil {
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
	predicted, err := st.predict(ops, pb)
	if err != nil {
		return nil, err
	}
	planCost := st.planCost
	if planCost.Hi <= 0 {
		planCost = cost.Point(predicted)
	}
	out.PlanDigest = obs.Digest(st.root.AppendFormat(make([]byte, 0, 4096))) // Format's digest, on the stack
	out.Calibration = obs.Calibrate(ops, planCost.Lo, planCost.Hi, out.SimulatedSeconds(db.sys.cfg.Params))
	return out, nil
}

// chosen returns the latest activation's report if it chose the plan about
// to run under b: not for a static target, a re-planned or rewritten root.
func (st *execState) chosen(b *bindings.Bindings) *plan.StartupReport {
	if rep := st.remedy.rep; rep != nil && rep.Chosen == st.root && st.remedy.repB == b {
		return rep
	}
	return nil
}

// predict attaches the cost model's predicted output cardinalities under
// b to the resolved plan's stats, ops, and returns the plan's predicted
// cost. The activation that chose the plan under b has both already; any
// other plan — a static target, a re-planned or rewritten root, bindings
// re-optimization corrected — is lowered and swept once.
func (st *execState) predict(ops []obs.PlanStats, b *bindings.Bindings) (float64, error) {
	if rep := st.chosen(b); rep != nil {
		attach(ops, rep.Cards)
		return rep.ChosenCost, nil
	}
	prog, err := physical.Lower(0, 0, st.root)
	if err != nil {
		return 0, fmt.Errorf("dynplan: predicting cardinalities: %w", err)
	}
	e := prog.At(&st.db.sys.cfg.Params, b)
	attach(ops, e.Card)
	return e.Cost[len(e.Cost)-1], nil
}

// attach gives each operator's stats its predicted cardinality by index:
// both are in post-order. A plan that shares a subplan lowers it once but
// is metered once per occurrence, so it has fewer predictions than stats
// and gets none.
func attach(ops []obs.PlanStats, cards []float64) {
	if len(cards) != len(ops) {
		return
	}
	preds := make([]obs.Prediction, len(cards))
	for i, c := range cards {
		preds[i] = obs.Prediction{CardLo: c, CardHi: c}
		ops[i].Predicted = &preds[i]
	}
}
