package degrade

import (
	"errors"
	"fmt"
	"testing"

	"dynplan/internal/qerr"
)

func TestDecideDescent(t *testing.T) {
	c := NewController(Policy{})
	fault := qerr.AtRel("file-scan", "R1", fmt.Errorf("%w: %w", qerr.ErrFaultInjected, qerr.ErrPermanentIO))
	for _, step := range []struct{ cur, want int }{{8, 4}, {4, 2}, {2, 1}} {
		next, ok := c.Decide(fault, step.cur)
		if !ok || next != step.want {
			t.Fatalf("Decide(fault, %d) = %d, %v; want %d, true", step.cur, next, ok, step.want)
		}
	}
	if next, ok := c.Decide(fault, 1); ok {
		t.Fatalf("Decide(fault, 1) = %d, true; the ladder has no rung below serial", next)
	}
	ev := c.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(ev), ev)
	}
	wantRungs := []string{"dop-halve", "dop-halve", "serial-fallback"}
	for i, e := range ev {
		if e.Rung != wantRungs[i] {
			t.Errorf("event %d rung = %q, want %q", i, e.Rung, wantRungs[i])
		}
		if e.Attempt != i+1 {
			t.Errorf("event %d attempt = %d, want %d", i, e.Attempt, i+1)
		}
		if e.Class != "permanent-io" {
			t.Errorf("event %d class = %q, want permanent-io", i, e.Class)
		}
		if e.Error == "" {
			t.Errorf("event %d carries no error text", i)
		}
	}
	if ev[0].FromDOP != 8 || ev[0].ToDOP != 4 || ev[2].FromDOP != 2 || ev[2].ToDOP != 1 {
		t.Errorf("descent endpoints wrong: %+v", ev)
	}
}

// TestDecideDeclines pins the ownership boundaries: the ladder only
// answers faults no other stage owns. Memory pressure belongs to the
// retry stage's grant downgrade, cardinality and stall faults to
// re-optimization, cancellation and admission verdicts to nobody.
func TestDecideDeclines(t *testing.T) {
	declined := []struct {
		name string
		err  error
	}{
		{"canceled", qerr.ErrCanceled},
		{"deadline", qerr.ErrDeadlineExceeded},
		{"admission", qerr.ErrAdmission},
		{"circuit-open", qerr.ErrCircuitOpen},
		{"insufficient-memory", qerr.ErrInsufficientMemory},
		{"cardinality", qerr.ErrCardinalityViolation},
		{"no-progress", qerr.ErrNoProgress},
		{"nil", nil},
		{"wrapped-cancel", qerr.At("probe", qerr.ErrCanceled)},
	}
	for _, tc := range declined {
		c := NewController(Policy{})
		if next, ok := c.Decide(tc.err, 8); ok {
			t.Errorf("%s: Decide = %d, true; the ladder must decline faults other stages own", tc.name, next)
		}
		if len(c.Events()) != 0 {
			t.Errorf("%s: declined decision still recorded an event", tc.name)
		}
	}
	// The faults the ladder does own: anything else, notably I/O.
	for _, err := range []error{
		qerr.ErrPermanentIO,
		qerr.ErrTransientIO, // escaped per-worker retry (attempts exhausted)
		qerr.ErrOperatorPanic,
		errors.New("unclassified substrate failure"),
	} {
		c := NewController(Policy{})
		if _, ok := c.Decide(err, 8); !ok {
			t.Errorf("Decide(%v, 8) declined; the ladder owns escalated execution faults", err)
		}
	}
}

func TestDecideDisabledAndNil(t *testing.T) {
	c := NewController(Policy{Disabled: true})
	if _, ok := c.Decide(qerr.ErrPermanentIO, 8); ok {
		t.Error("disabled controller still decided a step")
	}
	var nilC *Controller
	if _, ok := nilC.Decide(qerr.ErrPermanentIO, 8); ok {
		t.Error("nil controller decided a step")
	}
	if ev := nilC.Events(); ev != nil {
		t.Errorf("nil controller reports events: %+v", ev)
	}
}
