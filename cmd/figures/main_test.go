package main

import (
	"strings"
	"testing"
)

// TestAnalyzeDemo runs the observability walkthrough end to end; it is
// the smoke test that keeps the -exp analyze path working.
func TestAnalyzeDemo(t *testing.T) {
	if err := analyzeDemo(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAdaptiveExperiment pins the §7 series of EXPERIMENTS.md as the
// public-API driver produces it at the default seed: both strategies agree
// on every result, every relation is observed exactly once, the estimation
// error is real, run-time decisions win by at least 2x from three
// relations on, and the adaptive account stays within 10 % of (or below)
// what the separate internal/adaptive engine charged for the same rows
// before it became re-optimization's eager trigger.
func TestRunAdaptiveExperiment(t *testing.T) {
	points, err := adaptiveSeries(11)
	if err != nil {
		t.Fatal(err)
	}
	formerEngine := []float64{1.725, 2.791, 2.583, 4.813, 3.501, 6.991}
	if len(points) != len(formerEngine) {
		t.Fatalf("%d adaptive points, want %d", len(points), len(formerEngine))
	}
	for i, p := range points {
		if !p.rowsAgree {
			t.Errorf("rels=%d claimed=%g: strategies disagree on results", p.relations, p.claimed)
		}
		if p.materialized != p.relations {
			t.Errorf("rels=%d claimed=%g: materialized %d subplans", p.relations, p.claimed, p.materialized)
		}
		if p.actual <= p.claimed {
			t.Errorf("estimation error missing: actual %g <= claimed %g", p.actual, p.claimed)
		}
		if ratio := p.startupExec / p.adaptiveExec; p.relations >= 3 && ratio < 2 {
			t.Errorf("rels=%d claimed=%g: adaptive benefit only %.2fx", p.relations, p.claimed, ratio)
		}
		if p.adaptiveExec > formerEngine[i]*1.1 {
			t.Errorf("rels=%d claimed=%g: adaptive %.4gs, the former engine charged %.4gs",
				p.relations, p.claimed, p.adaptiveExec, formerEngine[i])
		}
	}
	if out := adaptiveReport(points); !strings.Contains(out, "adaptive [s]") {
		t.Errorf("report malformed:\n%s", out)
	}
}
