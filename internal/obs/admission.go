package obs

import (
	"fmt"
	"time"
)

// AdmissionStats is the resource-governor account of one governed
// execution: what the query asked for, what the grant broker actually
// gave it, and how long it queued. It rides on ExecResult so EXPLAIN
// ANALYZE and run records can show the contention a query ran under.
type AdmissionStats struct {
	// RequestedPages and GrantedPages are the memory grant negotiation;
	// Degraded reports GrantedPages < RequestedPages — the case where the
	// broker's pressure, not a static option, decided the start-up memory
	// binding and choose-plan resolution saw the reduced grant.
	RequestedPages float64 `json:"requested_pages"`
	GrantedPages   float64 `json:"granted_pages"`
	Degraded       bool    `json:"degraded,omitempty"`
	// QueueWaitNanos is the time spent waiting for an execution slot and a
	// memory grant before start-up processing began.
	QueueWaitNanos int64 `json:"queue_wait_ns"`
}

// Render formats the admission account as one line.
func (a *AdmissionStats) Render() string {
	if a == nil {
		return ""
	}
	s := fmt.Sprintf("admission: granted %.0f/%.0f pages, queued %v",
		a.GrantedPages, a.RequestedPages, time.Duration(a.QueueWaitNanos).Round(time.Microsecond))
	if a.Degraded {
		s += " (degraded)"
	}
	return s + "\n"
}

// NewRetryTrace records one recovery decision of the resilient executor in
// the start-up decision trace: which failure class attempt n hit, how the
// executor responded, and the backoff it slept before retrying. It reuses
// ChoiceTrace so retry decisions render inline with choose-plan decisions
// in ExplainDecisions — both are run-time plan decisions.
func NewRetryTrace(attempt int, class, response string, backoff time.Duration) ChoiceTrace {
	reason := fmt.Sprintf("%s; %s", class, response)
	if backoff > 0 {
		reason += fmt.Sprintf("; backed off %v", backoff.Round(time.Microsecond))
	}
	return ChoiceTrace{
		Operator: fmt.Sprintf("Retry after attempt %d", attempt),
		Reason:   reason,
	}
}
