package dynplan

// The public execution API: Exec is the one entry point over the execution
// pipeline (pipeline.go). It classifies the query target, validates the
// bindings and the target/option fit, and runs the stage stack. No
// execution logic lives here, so a new execution feature must be a
// pipeline stage — one seam, every path.

import (
	"context"
	"fmt"

	"dynplan/internal/physical"
	"dynplan/internal/plancache"
)

// ExecOptions select which stages of the pipeline take part in a query.
// The zero value executes the target directly: resolved plans run as-is,
// modules are activated once.
type ExecOptions struct {
	// Governed routes the query through admission control and the memory
	// grant broker (SetGovernor); the grant, not the bindings' request,
	// feeds choose-plan resolution. The query waits for admission (bounded
	// queue, load shedding with ErrAdmission), may receive a grant degraded
	// below b.MemoryPages, runs under the governor's per-query deadline,
	// and releases its grant on every exit path; the result's Admission
	// field reports the negotiation. Without an installed governor the
	// Admit stage passes through unchanged.
	Governed bool
	// Resilient enables the retrying fallback executor — the run-time
	// payoff of carrying alternatives in the plan. Requires a *Module
	// target: fallback needs alternatives to steer onto. Each attempt
	// activates the module (resolving its choose-plan operators) and
	// executes the chosen plan; when the attempt fails, the failure's
	// classification decides the recovery:
	//
	//   - ErrTransientIO: the same plan is retried — transient faults heal
	//     after a bounded number of touches, so each retry makes progress.
	//   - ErrInsufficientMemory: the memory grant is downgraded to what is
	//     actually available (absorbing the injector's shrink event, or
	//     halving it), the branches the failed attempt had picked are
	//     excluded, and activation re-resolves the choose-plans —
	//     selecting the best alternative branch for the reduced memory.
	//   - Permanent faults and operator panics: the picked branches are
	//     excluded so re-activation steers onto sibling alternatives that
	//     may avoid the poisoned access path; with no alternatives left the
	//     failure is final. When a circuit breaker is installed
	//     (SetGovernor), the fault is also charged to the relation it was
	//     raised at.
	//   - ErrCanceled / ErrDeadlineExceeded: never retried.
	//
	// Retries pause under capped exponential backoff with deterministic
	// jitter (Policy.Backoff/MaxBackoff/JitterSeed); each pause is recorded
	// in the result's Backoffs and in the decision trace.
	//
	// When a per-relation circuit breaker is installed, relations whose
	// circuits are open are excluded from activation up front; if that
	// leaves no feasible plan the execution fails fast with ErrCircuitOpen
	// rather than re-probing a poisoned access path. When excluding failed
	// branches leaves no feasible plan, the exclusions are forgiven (the
	// module's full choice set is restored) rather than giving up — a
	// transiently-poisoned branch may have healed. Every chosen alternative
	// computes the same result (the choose-plan invariant), so a fallback
	// success returns exactly the rows the fault-free execution would have.
	//
	// The result's Retries, BranchSwitched, FaultsAbsorbed, Backoffs, and
	// EffectiveMemoryPages fields report what the execution absorbed.
	Resilient bool
	// Policy bounds the Resilient retry loop; the zero value selects the
	// defaults (see RetryPolicy).
	Policy RetryPolicy
	// Adaptive makes choose-plan decisions at run-time (§7): instead of
	// trusting the bound selectivities, decision procedures evaluate
	// subplans — each base relation the plan scans has its cheapest access
	// path materialized into a temporary, its observed cardinality corrects
	// the estimates, and only then do the remaining choose-plans (join
	// orders, algorithms, build sides) resolve. That makes the execution
	// robust to selectivity estimation error at the price of
	// materialization I/O, charged to the result's account. It is the eager
	// trigger of re-optimization — observe before the first tuple instead
	// of waiting for a guard to trip — so the result's Reopt field carries
	// what was learned (TempsCreated, ObservedSelectivities, one event pair
	// per relation), and it composes with every other option. A dynamic
	// *Plan is accepted as a target and activated like its Module; a
	// target without alternatives is observed once and finished as is.
	Adaptive bool
	// Reopt enables mid-query re-optimization: cardinality guards at
	// materialization points and safe plan switching / re-planning on a
	// violation (see ReoptPolicy). The caller's context bounds its time.
	Reopt *ReoptPolicy
	// Tenant names the identity the query runs under. The governor's
	// per-tenant admission slots and grant quotas key on it (see
	// GovernorConfig.TenantSlots), and it rides the result, the /queries
	// records, and the per-tenant admission stats in /metrics. Empty runs
	// the query anonymously, outside any per-tenant accounting.
	Tenant string
	// cacheKey and cacheHit carry the plan-cache provenance of a prepared
	// execution (PreparedQuery.Exec): which cache entry the module came
	// from, and whether it was a hit. Unexported — only the prepare path
	// sets them.
	cacheKey *plancache.Key
	cacheHit bool
	// Trace builds an end-to-end span tree for this query regardless of
	// the database-wide EnableTracing switch: one span per pipeline stage,
	// remedy-loop run, and replan, with wait states attributed. The
	// result's TraceID and Trace fields carry it, and the observatory's
	// /traces ring retains it when enabled.
	Trace bool
}

// Exec is the execution entry point: it runs query q — a *Plan, *Module,
// *Activation, or resolved plan node — under the bindings, through the
// pipeline stages the options enable. Once ctx is canceled or its deadline
// passes, execution stops within a bounded number of operator calls with
// an error wrapping ErrCanceled or ErrDeadlineExceeded. Invalid bindings
// fail with ErrInvalidBindings; a target that does not fit the options (a
// Resilient non-module, a dynamic *Plan without Adaptive) fails fast with
// an error wrapping ErrPipeline.
func (db *Database) Exec(ctx context.Context, q any, b Bindings, o ExecOptions) (*ExecResult, error) {
	ib, err := b.internal()
	if err != nil {
		return nil, err
	}
	st := &execState{db: db, o: o, b: ib}
	switch t := q.(type) {
	case *Module:
		st.module = t
	case *Plan:
		if t.IsDynamic() {
			if !o.Adaptive {
				return nil, &PipelineError{Reason: "cannot execute a dynamic plan directly; build its Module and Activate it first"}
			}
			// Run-time decisions re-resolve the plan's choose-plans per
			// observation, which is what the Activate stage does to a module.
			if st.module, err = t.Module(); err != nil {
				return nil, err
			}
			break
		}
		st.root = t.Root()
		// The plan carries its compile-time predicted cost interval; the
		// observatory's plan-level calibration verdict checks against it.
		st.planCost = t.res.Cost
	case *Activation:
		st.root = t.Chosen()
	case *physical.Node:
		st.root = t
	default:
		return nil, &PipelineError{Reason: fmt.Sprintf("cannot execute a %T; pass a *Plan, *Module, *Activation, or a resolved plan node", q)}
	}
	if o.Resilient && st.module == nil {
		return nil, &PipelineError{Reason: fmt.Sprintf("the Resilient option requires a *Module, not a %T; fallback needs alternatives to steer onto", q)}
	}
	return st.exec(ctx)
}
