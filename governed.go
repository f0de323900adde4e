package dynplan

import "dynplan/internal/governor"

// GovernorConfig parameterizes the database's resource governor: the
// memory grant broker, admission control with per-tenant gates and quotas,
// and the per-relation circuit breaker. The zero value of any knob selects
// its default; see internal/governor.Config for field documentation. The
// paper binds "memory available" at start-up (§4); under concurrency that
// binding is whatever the broker can grant when the query starts, and a
// degraded grant makes choose-plan resolution pick low-memory alternatives
// (§6.2). The caller's context bounds each query.
type GovernorConfig = governor.Config

// GovernorStats is a snapshot of the governor's counters; see
// internal/governor.Stats for field documentation.
type GovernorStats = governor.Stats

// SetGovernor installs a resource governor on the database: subsequent
// Governed executions (ExecOptions.Governed) pass through admission
// control and draw their memory grants from the shared pool, and the
// per-relation circuit breaker starts feeding Resilient executions.
// Call it before queries start; replacing a governor mid-traffic leaves
// in-flight tickets on the old one.
func (db *Database) SetGovernor(cfg GovernorConfig) {
	db.gov = governor.New(cfg)
	db.breaker = governor.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
}

// GovernorStats returns a snapshot of the governor's admission, queue,
// shed, and grant-broker counters; the zero value when no governor is
// installed.
func (db *Database) GovernorStats() GovernorStats {
	if db.gov == nil {
		return GovernorStats{}
	}
	return db.gov.Stats()
}
