package dynplan

import (
	"context"
	"time"

	"dynplan/internal/physical"
	"dynplan/internal/qerr"
)

// RetryPolicy bounds the retrying fallback executor.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions tried, including the
	// first (default 5).
	MaxAttempts int
	// Backoff is the base pause before the first retry, doubling each
	// further retry up to MaxBackoff; zero retries immediately. Each pause
	// is jittered (deterministically, from JitterSeed) to half its nominal
	// value plus a hashed remainder, and respects the context.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 32×Backoff).
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic backoff jitter, so retry
	// schedules are reproducible in tests and chaos runs (default 1).
	JitterSeed int64
}

// memoryDowngrade is the factor applied to the memory grant when an
// attempt fails with ErrInsufficientMemory and the injector reports no
// specific shrink factor to absorb.
const memoryDowngrade = 0.5

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 32 * p.Backoff
	}
	if p.JitterSeed == 0 {
		p.JitterSeed = 1
	}
	return p
}

// recordPlanOutcome updates the circuit breaker: a fault-free execution of
// chosen closes (or keeps closed) the breakers of every relation the plan
// read; a permanent fault on failedRel charges that relation. It reports
// whether the charge tripped the relation's breaker open.
func (db *Database) recordPlanOutcome(chosen *physical.Node, failedRel string) (tripped bool) {
	if db.breaker == nil {
		return false
	}
	if failedRel != "" {
		return db.breaker.RecordFailure(failedRel)
	}
	if chosen == nil {
		return false
	}
	seen := make(map[string]bool)
	chosen.Walk(func(n *physical.Node) {
		if n.Rel != "" && !seen[n.Rel] {
			seen[n.Rel] = true
			db.breaker.RecordSuccess(n.Rel)
		}
	})
	return false
}

// sleepBackoff pauses for d, honoring the context.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return qerr.FromContext(ctx.Err())
	case <-t.C:
		return nil
	}
}
