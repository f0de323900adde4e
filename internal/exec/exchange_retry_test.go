package exec

import (
	"testing"
	"time"
)

func TestWorkerRetryPolicyDefaults(t *testing.T) {
	for _, p := range []*WorkerRetryPolicy{nil, {}} {
		d := p.withDefaults()
		if d.MaxAttempts != 3 {
			t.Errorf("%+v: MaxAttempts = %d, want 3", p, d.MaxAttempts)
		}
		if d.Backoff != 100*time.Microsecond {
			t.Errorf("%+v: Backoff = %v, want 100µs", p, d.Backoff)
		}
		if d.MaxBackoff != 32*d.Backoff {
			t.Errorf("%+v: MaxBackoff = %v, want 32×Backoff", p, d.MaxBackoff)
		}
		if d.JitterSeed != 1 {
			t.Errorf("%+v: JitterSeed = %d, want 1", p, d.JitterSeed)
		}
	}
	// An explicit base keeps its 32× cap; an explicit cap keeps its base.
	d := (&WorkerRetryPolicy{Backoff: time.Millisecond}).withDefaults()
	if d.Backoff != time.Millisecond || d.MaxBackoff != 32*time.Millisecond {
		t.Errorf("explicit base: %+v", d)
	}
	// MaxBackoff set alone means "immediate retries were not intended":
	// the base defaults, the cap stands.
	d = (&WorkerRetryPolicy{MaxBackoff: time.Second}).withDefaults()
	if d.Backoff != 0 || d.MaxBackoff != time.Second {
		t.Errorf("explicit cap only: %+v", d)
	}
	// MaxAttempts 1 survives defaulting — it is the documented off switch.
	if d := (&WorkerRetryPolicy{MaxAttempts: 1}).withDefaults(); d.MaxAttempts != 1 {
		t.Errorf("MaxAttempts 1 defaulted away to %d", d.MaxAttempts)
	}
}

func TestWorkerRetryDelay(t *testing.T) {
	p := (&WorkerRetryPolicy{Backoff: 100 * time.Microsecond, JitterSeed: 42}).withDefaults()
	delay := func(worker, retry int) time.Duration {
		return Backoff(p.Backoff, p.MaxBackoff, p.JitterSeed, worker, retry)
	}
	// Deterministic: the same (worker, retry) always pauses identically.
	for worker := 0; worker < 4; worker++ {
		for retry := 1; retry <= 8; retry++ {
			a, b := delay(worker, retry), delay(worker, retry)
			if a != b {
				t.Fatalf("delay(%d, %d) unstable: %v vs %v", worker, retry, a, b)
			}
			// Equal jitter keeps the pause within [nominal/2, nominal].
			nominal := p.Backoff << uint(retry-1)
			if nominal > p.MaxBackoff {
				nominal = p.MaxBackoff
			}
			if a < nominal/2 || a > nominal {
				t.Errorf("delay(%d, %d) = %v outside [%v, %v]", worker, retry, a, nominal/2, nominal)
			}
		}
	}
	// Workers de-synchronize: with jitter over (seed, worker, retry), at
	// least two of the first four workers pause differently on retry 1.
	distinct := map[time.Duration]bool{}
	for worker := 0; worker < 4; worker++ {
		distinct[delay(worker, 1)] = true
	}
	if len(distinct) < 2 {
		t.Error("all workers drew the identical first backoff; jitter is not per-worker")
	}
	// Retries draw unrelated fractions: one worker's retries 1–9 land at
	// many points of the jitter range, not at one (a hash whose low input
	// bits barely reached the kept high bits drew 0.98900 for all nine
	// under seed 7, 0.67792 under seed 42).
	for _, seed := range []int64{7, 42} {
		fracs := map[int64]bool{}
		for retry := 1; retry <= 9; retry++ {
			d := Backoff(p.Backoff, p.MaxBackoff, seed, 0, retry)
			half := (min(p.Backoff<<uint(retry-1), p.MaxBackoff) / 2).Nanoseconds()
			fracs[(d.Nanoseconds()-half)*1000/(half+1)] = true
		}
		if len(fracs) < 6 {
			t.Errorf("seed %d: retries 1–9 drew %d distinct jitter fractions (per mille), want >= 6", seed, len(fracs))
		}
	}
	// A pause is arithmetic: computing one allocates nothing.
	if a := testing.AllocsPerRun(100, func() { _ = delay(3, 5) }); a != 0 && !raceEnabled {
		t.Errorf("Backoff allocates %.0f times per call, want 0", a)
	}
	// The exponent caps: a huge retry index must not overflow the shift.
	if d := delay(0, 1000); d <= 0 || d > p.MaxBackoff {
		t.Errorf("delay at retry 1000 = %v, want within (0, %v]", d, p.MaxBackoff)
	}
	// Zero backoff means immediate retry regardless of the retry index.
	if d := Backoff(0, 0, 1, 1, 3); d != 0 {
		t.Errorf("zero-backoff policy paused %v", d)
	}
}
