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

// TestInjectedFaultClassification is the table the fault-domain design
// rests on: every error kind the injector produces, classified the way
// the recovery ladder consumes it. Per-worker retry absorbs exactly the
// qerr.Retryable kinds; everything else escalates to the degradation
// ladder (or past it, to the stage owning the remedy). A new injected
// fault kind must be added here with an explicit retryability verdict
// before the injector may emit it.
func TestInjectedFaultClassification(t *testing.T) {
	cases := []struct {
		name      string
		cfg       FaultConfig // zero Seed: the kind decides, not the draw
		retryable bool
		class     string
		sentinels []error
	}{
		{
			name:      "transient-io",
			cfg:       FaultConfig{Seed: 1, TransientRate: 1},
			retryable: true,
			class:     "transient-io",
			sentinels: []error{qerr.ErrTransientIO, qerr.ErrFaultInjected},
		},
		{
			name:      "permanent-io",
			cfg:       FaultConfig{Seed: 1, PermanentRate: 1},
			retryable: false,
			class:     "permanent-io",
			sentinels: []error{qerr.ErrPermanentIO, qerr.ErrFaultInjected},
		},
		{
			name: "transient-io-persistent",
			// Persistence above 1 keeps the page failing across retries —
			// the kind the backoff-cancellation tests lean on. Still the
			// same classification: persistence changes duration, not kind.
			cfg:       FaultConfig{Seed: 1, TransientRate: 1, Persistence: 3},
			retryable: true,
			class:     "transient-io",
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
			if got := qerr.Class(err); got != tc.class {
				t.Errorf("Class(%v) = %q, want %q", err, got, tc.class)
			}
		})
	}
	// The memory-shrink event injects no read error; operators that no
	// longer fit surface qerr.ErrInsufficientMemory themselves. Its
	// classification rides the same taxonomy: retryable (the Remedy stage's
	// retry downgrades the grant), never ladder territory.
	if !qerr.Retryable(qerr.ErrInsufficientMemory) {
		t.Error("insufficient-memory must stay retryable: the grant downgrade is its cure")
	}
	if got := qerr.Class(qerr.ErrInsufficientMemory); got != "insufficient-memory" {
		t.Errorf("Class(ErrInsufficientMemory) = %q", got)
	}
}

// TestInjectorTargeting pins the per-worker confinement: with TargetRel
// and a page range set, only reads of that relation inside the range can
// fail — at rate 1, every one of them does — and every read outside the
// target passes untouched.
func TestInjectorTargeting(t *testing.T) {
	inj := NewInjector(FaultConfig{
		Seed: 3, PermanentRate: 1,
		TargetRel: "R", TargetPageLo: 4, TargetPageHi: 8,
	})
	for p := int32(0); p < 12; p++ {
		err := inj.PageRead("R", p, nil)
		inRange := p >= 4 && p < 8
		if inRange && err == nil {
			t.Errorf("R page %d inside the target range read cleanly at rate 1", p)
		}
		if !inRange && err != nil {
			t.Errorf("R page %d outside the target range failed: %v", p, err)
		}
	}
	for p := int32(0); p < 12; p++ {
		if err := inj.PageRead("S", p, nil); err != nil {
			t.Errorf("untargeted relation S page %d failed: %v", p, err)
		}
	}
	if st := inj.Stats(); st.Injected != 4 {
		t.Errorf("injected %d faults, want exactly the 4 targeted pages", st.Injected)
	}

	// TargetPageHi 0 leaves the range unbounded above.
	open := NewInjector(FaultConfig{Seed: 3, PermanentRate: 1, TargetRel: "R", TargetPageLo: 2})
	if err := open.PageRead("R", 1, nil); err != nil {
		t.Errorf("page below TargetPageLo failed: %v", err)
	}
	if err := open.PageRead("R", 4096, nil); err == nil {
		t.Error("unbounded range let a high page pass at rate 1")
	}
}

// TestPartitionPageRange proves the targeting arithmetic matches a
// partitioned scan exactly: for every (numPages, dop), the dop ranges are
// contiguous, disjoint, and cover [0, numPages) — so poisoning one range
// poisons one worker's fault domain, the whole fault domain, and nothing
// else.
func TestPartitionPageRange(t *testing.T) {
	for _, numPages := range []int{1, 2, 7, 16, 64, 101} {
		for _, dop := range []int{1, 2, 3, 4, 8} {
			covered := int32(0)
			for k := 0; k < dop; k++ {
				lo, hi := PartitionPageRange(numPages, dop, k)
				if lo != covered {
					t.Fatalf("pages=%d dop=%d worker %d: range starts at %d, want %d (gap or overlap)",
						numPages, dop, k, lo, covered)
				}
				if hi < lo {
					t.Fatalf("pages=%d dop=%d worker %d: inverted range [%d, %d)", numPages, dop, k, lo, hi)
				}
				covered = hi
			}
			if covered != int32(numPages) {
				t.Fatalf("pages=%d dop=%d: partitions cover [0, %d), want [0, %d)", numPages, dop, covered, numPages)
			}
		}
	}
}
