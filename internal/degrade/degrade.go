// Package degrade owns the graceful-degradation ladder for parallel
// execution: the per-query controller that decides, when an exchange
// worker escalates past its in-place retries, whether the query steps
// down to a lower degree of parallelism instead of failing outright.
//
// The ladder sits between the per-worker fault domain (bounded retries
// inside internal/exec, invisible here) and the whole-query remedies the
// resilient executor owns (memory downgrade, branch switch, whole-query
// retry). Its rungs, in order: halve the DOP and re-run, repeat until the
// DOP reaches 1, then fall back to serial execution. Faults the ladder
// cannot help with — cancellation, admission rejections, open breakers,
// memory pressure, cardinality violations, watchdog stalls — escalate
// straight past it so the stage that owns the matching remedy sees them
// unchanged.
//
// Construction is deliberately confined: only the pipeline's degrade
// stage builds controllers (a lint gate pins NewController call sites to
// pipeline.go and this package), so ladder policy cannot fork per call
// site.
package degrade

import (
	"errors"

	"dynplan/internal/obs"
	"dynplan/internal/qerr"
)

// Policy parameterizes a query's degradation ladder.
type Policy struct {
	// Disabled turns the ladder off: every escalated fault passes through
	// to the downstream remedies untouched.
	Disabled bool
}

// Controller runs one query's ladder. It is not safe for concurrent use;
// the pipeline builds a fresh controller per retry attempt, so ladders
// never leak descent across whole-query retries.
type Controller struct {
	pol    Policy
	events []obs.DegradeEvent
}

// NewController builds a ladder controller from the policy.
func NewController(pol Policy) *Controller {
	return &Controller{pol: pol}
}

// Decide consumes one escalated execution failure. When the ladder has a
// rung left it returns the DOP cap the re-execution must run under and
// true, recording the step; otherwise it returns 0 and false and the
// fault keeps escalating. curDOP is the degree of parallelism the failed
// execution actually ran with.
//
// The ladder declines faults another stage owns the remedy for:
// cancellation and deadlines (nothing re-runs), admission rejections and
// open breakers (the query never ran / the access path is poisoned),
// insufficient memory (the retry stage's memory downgrade is the cure),
// cardinality violations and watchdog stalls (re-optimization territory).
// What remains — transient and permanent I/O faults and operator panics
// that survived per-worker retry — is exactly what running narrower can
// help: fewer workers touch fewer pages concurrently, and serial
// execution re-reads every page through the healed fault path.
func (c *Controller) Decide(err error, curDOP int) (nextDOP int, ok bool) {
	if c == nil || c.pol.Disabled || err == nil || curDOP <= 1 {
		return 0, false
	}
	switch {
	case qerr.Canceled(err),
		errors.Is(err, qerr.ErrAdmission),
		errors.Is(err, qerr.ErrCircuitOpen),
		errors.Is(err, qerr.ErrInsufficientMemory),
		errors.Is(err, qerr.ErrCardinalityViolation),
		errors.Is(err, qerr.ErrNoProgress):
		return 0, false
	}
	nextDOP = curDOP / 2
	rung := "dop-halve"
	if nextDOP <= 1 {
		nextDOP = 1
		rung = "serial-fallback"
	}
	c.events = append(c.events, obs.DegradeEvent{
		Attempt: len(c.events) + 1,
		Rung:    rung,
		FromDOP: curDOP,
		ToDOP:   nextDOP,
		Class:   qerr.Class(err),
		Error:   err.Error(),
	})
	return nextDOP, true
}

// Last returns the most recent ladder step, or nil when none was taken.
func (c *Controller) Last() *obs.DegradeEvent {
	if c == nil || len(c.events) == 0 {
		return nil
	}
	return &c.events[len(c.events)-1]
}

// Events returns the ladder steps taken so far, in order.
func (c *Controller) Events() []obs.DegradeEvent {
	if c == nil {
		return nil
	}
	return c.events
}
