package dynplan

import (
	"time"

	"dynplan/internal/reopt"
)

// ReoptPolicy enables and bounds mid-query re-optimization
// (ExecOptions.Reopt). The execution pipeline arms cardinality guards at
// every materialization point whose subtree reads a single base relation
// (hash-join builds, sort inputs, temporary loads): when the observed row
// count misses the cost model's predicted band by a q-error above 2, the
// rows already materialized are spooled into a temporary and the plan is
// remedied mid-flight — by re-activating the dynamic plan's surviving
// alternatives under the observed selectivities, by re-entering the
// optimizer with the temporary as a base relation (requires Query), or, when
// the budget is exhausted, by degrading to finishing the current plan over
// the temporary. The ExecResult's Reopt field carries the decision trace.
type ReoptPolicy struct {
	// Query is the logical query the plan came from; required for the
	// re-plan remedy (the optimizer needs the query, not the plan). Nil
	// restricts remedies to switching and degrading.
	Query *Query
	// MaxAttempts bounds how many guard trips are remedied before the
	// execution degrades (default 2).
	MaxAttempts int
	// MaxPlanningTime bounds the cumulative optimizer time re-planning may
	// spend (default 250ms).
	MaxPlanningTime time.Duration
}

// ReoptAccount is the per-query re-optimization summary an ExecResult
// carries: the decision trace, the remedies taken, and the budget spent.
type ReoptAccount = reopt.Account
