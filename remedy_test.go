package dynplan

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"dynplan/internal/obs"
)

// TestRemedyLadderThenRetry drives the remedies in their escalation order
// on one query: a Resilient + Parallel + Reopt module run whose permanent
// fault outlasts the whole degradation ladder. The run at the initial DOP
// fails, the halved re-run fails, the serial fallback fails too; only then
// does the whole-query retry fire, excluding the picked branches, and the
// retried attempt completes — still serial, because a retry starts a fresh
// ladder but keeps the DOP cap the old one imposed. The ladder's two events
// belong to the failed attempt: the final result carries none, while the
// registry counts both rungs.
func TestRemedyLadderThenRetry(t *testing.T) {
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

	cfg, mid := midPageFault(t, db)
	cfg.PermanentRate = 1
	// Three injections: one each for the run at the initial DOP, the
	// halved re-run and the serial fallback. The retried attempt then
	// reads the page clean.
	cfg.MaxInjected = 3
	db.InjectFaults(cfg)
	defer db.faults.Store(nil)

	res, err := db.Exec(context.Background(), mod, b, ExecOptions{
		Resilient: true, Parallel: true, MaxDOP: 4,
		Reopt: &ReoptPolicy{Query: q},
		Trace: true,
	})
	if err != nil {
		t.Fatalf("remedies did not carry the query past the permanent fault on page %d: %v", mid, err)
	}
	if got := strings.Join(canonical(res), "\n"); got != want {
		t.Error("recovered rows diverge from the fault-free serial run")
	}
	if inj := db.injector().Stats().Injected; inj != 3 {
		t.Fatalf("injected=%d, want 3: the fault did not outlast the ladder", inj)
	}
	// The halvings and the serial fallback come before the retry: the runs,
	// read off the trace in order, narrow 4 → 2 → 1 and the retried run
	// stays serial. Had the retry fired first, the second run would have
	// restarted at full width.
	var widths []int
	res.Trace.Root.Walk(func(s *TraceSpan) {
		if s.Kind != obs.SpanStage || s.Name != "Run" {
			return
		}
		w := 1
		for _, x := range s.Children {
			if x.Kind == obs.SpanExchange {
				w = max(w, len(x.Children))
			}
		}
		widths = append(widths, w)
	})
	if fmt.Sprint(widths) != "[4 2 1 1]" {
		t.Errorf("run widths %v, want [4 2 1 1]: two rungs, then one retry at the capped DOP", widths)
	}
	if len(res.Degrade) != 0 {
		t.Errorf("final result carries %d ladder events, want 0 (they belong to the failed attempt): %+v", len(res.Degrade), res.Degrade)
	}
	if res.Retries != 1 {
		t.Errorf("Retries=%d, want 1", res.Retries)
	}
	if res.Parallel == nil || res.Parallel.DOP != 1 || res.Parallel.Reason != "degraded" {
		t.Errorf("final run: %+v, want DOP 1 with reason \"degraded\"", res.Parallel)
	}

	rec := httptest.NewRecorder()
	db.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if snap.DopDegrades != 1 || snap.SerialFallbacks != 1 {
		t.Errorf("/metrics rungs: dop_degrades=%d serial_fallbacks=%d, want 1/1", snap.DopDegrades, snap.SerialFallbacks)
	}
	if snap.ReoptTempsCreated != snap.ReoptTempsReleased {
		t.Errorf("temp ledger: %d created, %d released", snap.ReoptTempsCreated, snap.ReoptTempsReleased)
	}
}
