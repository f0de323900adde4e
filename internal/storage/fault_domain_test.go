package storage

import (
	"errors"
	"testing"

	"dynplan/internal/qerr"
)

// findPage hunts for a page the injector's hash assigns the configured
// fault under the given seed, so the classification rows below always
// exercise a real injected error rather than depending on page 0 drawing
// unlucky.
func findPage(t *testing.T, cfg FaultConfig) int32 {
	t.Helper()
	probe := NewInjector(cfg)
	for p := int32(0); p < 4096; p++ {
		if probe.PageRead("R", p, nil) != nil {
			return p
		}
	}
	t.Fatalf("no page draws a fault under %+v", cfg)
	return 0
}

// TestInjectedFaultClassification is the table the recovery design rests
// on: every error kind the injector produces, classified the way the
// Remedy stage's retry and the circuit breaker read it — a transient
// fault retries the same plan, anything else is charged to its relation
// and answered by another branch. A new injected fault kind must be added
// here with an explicit retryability verdict before the injector may emit
// it.
func TestInjectedFaultClassification(t *testing.T) {
	cases := []struct {
		name      string
		cfg       FaultConfig // zero Seed: the kind decides, not the draw
		retryable bool
		sentinels []error
	}{
		{
			name:      "transient-io",
			cfg:       FaultConfig{Seed: 1, TransientRate: 1},
			retryable: true,
			sentinels: []error{qerr.ErrTransientIO, qerr.ErrFaultInjected},
		},
		{
			name:      "permanent-io",
			cfg:       FaultConfig{Seed: 1, PermanentRate: 1},
			retryable: false,
			sentinels: []error{qerr.ErrPermanentIO, qerr.ErrFaultInjected},
		},
		{
			name: "transient-io-persistent",
			// Persistence above 1 keeps the page failing across retries.
			// Still the same classification: persistence changes duration,
			// not kind.
			cfg:       FaultConfig{Seed: 1, TransientRate: 1, Persistence: 3},
			retryable: true,
			sentinels: []error{qerr.ErrTransientIO, qerr.ErrFaultInjected},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			page := findPage(t, tc.cfg)
			err := NewInjector(tc.cfg).PageRead("R", page, nil)
			if err == nil {
				t.Fatal("no fault injected")
			}
			for _, s := range tc.sentinels {
				if !errors.Is(err, s) {
					t.Errorf("error %v does not wrap %v", err, s)
				}
			}
			if got := qerr.Retryable(err); got != tc.retryable {
				t.Errorf("Retryable(%v) = %v, want %v", err, got, tc.retryable)
			}
		})
	}
	// The memory-shrink event injects no read error; operators that no
	// longer fit surface qerr.ErrInsufficientMemory themselves. Its
	// classification rides the same taxonomy: retryable (the Remedy stage's
	// retry downgrades the grant).
	if !qerr.Retryable(qerr.ErrInsufficientMemory) {
		t.Error("insufficient-memory must stay retryable: the grant downgrade is its cure")
	}
}
