package dynplan

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRemedyPermanentFaultRetries drives a permanent fault through the
// Remedy stage of a Resilient + Reopt + Adaptive module run: the first
// attempt's first page read fails for good, no re-optimization remedy
// owns that failure, so the one whole-query retry fires, excludes the
// picked branches, and the retried attempt completes with the fault-free
// rows. Both attempts' re-optimization controllers spool temporaries;
// the registry's ledger shows every one of them released.
func TestRemedyPermanentFaultRetries(t *testing.T) {
	sys, q := resilChainSystem(t, 2)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)
	db.EnableObservatory()
	defer db.DisableObservatory()
	b := resilBindings(2, 0.5, 96)
	ref, err := db.Exec(context.Background(), mod, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(canonical(ref), "\n")

	// One injection: the first attempt's first page read fails
	// permanently; the retried attempt reads every page clean.
	db.InjectFaults(FaultConfig{Seed: 11, PermanentRate: 1, MaxInjected: 1})
	defer db.faults.Store(nil)

	res, err := db.Exec(context.Background(), mod, b, ExecOptions{
		Resilient: true,
		Reopt:     &ReoptPolicy{Query: q},
		Adaptive:  true,
	})
	if err != nil {
		t.Fatalf("the retry did not carry the query past the permanent fault: %v", err)
	}
	if got := strings.Join(canonical(res), "\n"); got != want {
		t.Error("recovered rows diverge from the fault-free run")
	}
	if st := db.injector().Stats(); st.Injected != 1 || st.Permanent != 1 {
		t.Fatalf("injected %d (%d permanent), want one permanent fault", st.Injected, st.Permanent)
	}
	if res.Retries != 1 {
		t.Errorf("Retries=%d, want 1", res.Retries)
	}
	var retries []string
	for _, d := range res.Decisions {
		if strings.HasPrefix(d.Operator, "Retry after attempt") {
			retries = append(retries, d.Operator+": "+d.Reason)
		}
	}
	if len(retries) != 1 || !strings.Contains(retries[0], "permanent fault") {
		t.Errorf("retry decisions %q, want one answering the permanent fault", retries)
	}

	rec := httptest.NewRecorder()
	db.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if snap.Retries != 1 {
		t.Errorf("/metrics retries=%d, want 1", snap.Retries)
	}
	if snap.ReoptTempsCreated == 0 || snap.ReoptTempsCreated != snap.ReoptTempsReleased {
		t.Errorf("temp ledger: %d created, %d released; want a non-empty, balanced ledger",
			snap.ReoptTempsCreated, snap.ReoptTempsReleased)
	}
}

// TestRetryBackoff pins the whole-query retry's pause schedule: stable per
// (seed, retry), inside the equal-jitter envelope of its capped
// exponential nominal value, spread over the jitter range from one retry
// to the next, allocation-free, safe at huge retry indices, immediate at a
// zero base, and equal to the recorded schedule of seeds 1 and 42.
func TestRetryBackoff(t *testing.T) {
	pol := RetryPolicy{Backoff: 100 * time.Microsecond, JitterSeed: 42}.withDefaults()
	delay := func(retry int) time.Duration {
		return backoff(pol.Backoff, pol.MaxBackoff, pol.JitterSeed, retry)
	}
	for retry := 1; retry <= 8; retry++ {
		a, b := delay(retry), delay(retry)
		if a != b {
			t.Fatalf("delay(%d) unstable: %v vs %v", retry, a, b)
		}
		nominal := min(pol.Backoff<<uint(retry-1), pol.MaxBackoff)
		if a < nominal/2 || a > nominal {
			t.Errorf("delay(%d) = %v outside [%v, %v]", retry, a, nominal/2, nominal)
		}
	}
	// Retries draw unrelated fractions: retries 1–9 land at many points of
	// the jitter range, not at one (a hash whose low input bits barely
	// reached the kept high bits drew 0.98900 for all nine under seed 7,
	// 0.67792 under seed 42).
	for _, seed := range []int64{7, 42} {
		fracs := map[int64]bool{}
		for retry := 1; retry <= 9; retry++ {
			d := backoff(pol.Backoff, pol.MaxBackoff, seed, retry)
			half := (min(pol.Backoff<<uint(retry-1), pol.MaxBackoff) / 2).Nanoseconds()
			fracs[(d.Nanoseconds()-half)*1000/(half+1)] = true
		}
		if len(fracs) < 6 {
			t.Errorf("seed %d: retries 1–9 drew %d distinct jitter fractions (per mille), want >= 6", seed, len(fracs))
		}
	}
	// The schedule is a recorded fact: these pauses are what every earlier
	// build slept, so a refactor of the hash may not move them.
	for seed, want := range map[int64][]time.Duration{
		1:  {67656, 153099, 375242, 771348, 1119507, 2757446},
		42: {95616, 175982, 386491, 513255, 1140359, 2009629},
	} {
		for i, w := range want {
			if d := backoff(pol.Backoff, pol.MaxBackoff, seed, i+1); d != w {
				t.Errorf("seed %d retry %d: %v, want the recorded %v", seed, i+1, d, w)
			}
		}
	}
	// A pause is arithmetic: computing one allocates nothing.
	if a := testing.AllocsPerRun(100, func() { _ = delay(5) }); a != 0 && !raceEnabled {
		t.Errorf("backoff allocates %.0f times per call, want 0", a)
	}
	// The exponent caps: a huge retry index must not overflow the shift.
	if d := delay(1000); d <= 0 || d > pol.MaxBackoff {
		t.Errorf("delay at retry 1000 = %v, want within (0, %v]", d, pol.MaxBackoff)
	}
	// Zero backoff means immediate retry regardless of the retry index.
	if d := backoff(0, 0, 1, 3); d != 0 {
		t.Errorf("zero-backoff policy paused %v", d)
	}
}
