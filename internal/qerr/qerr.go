// Package qerr is the typed error taxonomy of the execution layer.
//
// The paper's dynamic plans encode *alternatives*; turning that into
// run-time robustness requires failures the system can reason about. Every
// mid-query failure the engine can produce is classified into one of the
// sentinel errors below, so callers (most importantly the retrying
// fallback executor in the root package) can decide between retrying the
// same plan, re-resolving a choose-plan operator to a sibling branch under
// downgraded bindings, or giving up:
//
//   - ErrCanceled / ErrDeadlineExceeded: the caller's context ended; never
//     retried.
//   - ErrTransientIO: a page read failed but is expected to succeed when
//     reissued (the fault-injection substrate heals transient faults after
//     a bounded number of touches). Retrying the same plan makes progress.
//   - ErrInsufficientMemory: the run-time memory grant shrank below what a
//     memory-hungry operator (hash-join build, sort) needs. Retrying the
//     same plan cannot help; re-resolving the choose-plan against reduced
//     memory bindings selects a branch that can run.
//   - ErrPermanentIO / ErrFaultInjected: an unrecoverable storage fault;
//     only a branch that avoids the poisoned access path can succeed.
//   - ErrOperatorPanic: an operator panicked; the executor boundary
//     converts the panic into this typed error instead of crashing the
//     process.
//
// Failures are additionally wrapped in an OpError naming the plan operator
// that raised them (e.g. "Hash-Join R1.jh = R2.jl"), so diagnostics point
// at the failing plan node rather than at the executor as a whole.
package qerr

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors of the execution layer. Match with errors.Is: wrapping
// layers (OpError, fmt.Errorf("%w")) preserve the classification.
var (
	// ErrCanceled reports that the caller's context was canceled
	// mid-query. Errors wrapping it also wrap context.Canceled.
	ErrCanceled = errors.New("qerr: execution canceled")
	// ErrDeadlineExceeded reports that the caller's deadline passed
	// mid-query. Errors wrapping it also wrap context.DeadlineExceeded.
	ErrDeadlineExceeded = errors.New("qerr: execution deadline exceeded")
	// ErrInsufficientMemory reports that the memory available at run-time
	// shrank below what an operator needs.
	ErrInsufficientMemory = errors.New("qerr: insufficient memory")
	// ErrTransientIO reports a page read that failed transiently; the
	// read is expected to succeed when reissued.
	ErrTransientIO = errors.New("qerr: transient I/O error")
	// ErrPermanentIO reports an unrecoverable page-read failure.
	ErrPermanentIO = errors.New("qerr: permanent I/O error")
	// ErrFaultInjected marks every error produced by the fault-injection
	// substrate, transient or permanent, so tests and the harness can
	// distinguish injected faults from organic ones.
	ErrFaultInjected = errors.New("qerr: injected fault")
	// ErrOperatorPanic reports an operator panic converted to an error at
	// the executor boundary.
	ErrOperatorPanic = errors.New("qerr: operator panic")
	// ErrAdmission reports that the resource governor refused to run the
	// query: the admission queue was full, or the queue-wait (or grant-wait)
	// budget expired before a slot or a memory grant freed up. The query
	// never started executing; resubmitting under lighter load can succeed.
	ErrAdmission = errors.New("qerr: admission rejected")
	// ErrCircuitOpen reports that a per-relation circuit breaker — tripped
	// by repeated permanent faults on that relation — excluded every plan
	// alternative, so execution failed fast instead of burning retries
	// against a poisoned access path.
	ErrCircuitOpen = errors.New("qerr: circuit breaker open")
	// ErrCardinalityViolation reports that a mid-query cardinality guard
	// observed a row count outside the cost model's predicted band at a
	// materialization point. The re-optimization stage consumes it (switch,
	// re-plan, or degrade); it surfaces to callers only when no re-opt
	// policy is active to remedy it.
	ErrCardinalityViolation = errors.New("qerr: cardinality outside predicted band")
	// ErrNoProgress reports that the progress watchdog observed no tuples
	// advancing for longer than the configured no-progress timeout: the
	// query is stuck, not slow. Unlike a deadline it is attributed to the
	// operator that was polled when the stall was detected.
	ErrNoProgress = errors.New("qerr: no progress")
)

// Retryable reports whether re-executing can plausibly succeed: transient
// I/O errors (retry the same plan) and insufficient memory (retry a
// different branch under downgraded bindings). Cancellation, deadlines,
// permanent I/O errors, and panics are not retryable.
func Retryable(err error) bool {
	return errors.Is(err, ErrTransientIO) || errors.Is(err, ErrInsufficientMemory)
}

// Canceled reports whether the error stems from context cancellation or
// expiry, directly or wrapped.
func Canceled(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded)
}

// FromContext converts a context error into the taxonomy. The result
// wraps both the sentinel (ErrCanceled / ErrDeadlineExceeded) and the
// original context error, so errors.Is works against either. A nil or
// non-context error is returned unchanged.
func FromContext(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	default:
		return err
	}
}

// OpError attaches the plan operator that raised a failure. The executor
// wraps every iterator's errors, innermost operator first; At leaves an
// existing OpError untouched, so the operator named is the one closest to
// the failure.
type OpError struct {
	// Op describes the failing plan operator ("File-Scan R1", …).
	Op string
	// Rel is the base relation the failing operator reads, when it reads
	// one ("" for pure compute operators). The per-relation circuit breaker
	// keys on it.
	Rel string
	// Err is the underlying failure.
	Err error
}

// Error renders "operator: cause".
func (e *OpError) Error() string { return e.Op + ": " + e.Err.Error() }

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *OpError) Unwrap() error { return e.Err }

// At wraps err with the operator description, unless err is nil or
// already carries an operator (the innermost — most precise — operator
// wins). Context-derived errors are left unwrapped too: cancellation is a
// property of the whole execution, not of the operator that happened to
// poll it.
func At(op string, err error) error {
	return AtRel(op, "", err)
}

// AtRel is At carrying the base relation the operator reads, so failures
// can be attributed to a relation (see Relation) as well as an operator.
func AtRel(op, rel string, err error) error {
	if err == nil {
		return nil
	}
	var oe *OpError
	if errors.As(err, &oe) || Canceled(err) {
		return err
	}
	return &OpError{Op: op, Rel: rel, Err: err}
}

// Operator returns the plan operator a failure was raised at, or "" when
// the error carries none.
func Operator(err error) string {
	var oe *OpError
	if errors.As(err, &oe) {
		return oe.Op
	}
	return ""
}

// Relation returns the base relation the failing operator was reading, or
// "" when the error carries none — compute operators, cancellation, and
// governor rejections have no relation.
func Relation(err error) string {
	var oe *OpError
	if errors.As(err, &oe) {
		return oe.Rel
	}
	return ""
}
