package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	v := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {1, 40}, {0.25, 17.5}, {0.99, 39.7}} {
		if got := quantile(v, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %g) = %g, want %g", v, c.q, got, c.want)
		}
	}
	if v[0] != 40 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

// Disturbed passes must not move an op's latency, and the percentile
// over ops must name the slow op, not the slow moment.
func TestPerOpLatencyVotesOutDisturbedPasses(t *testing.T) {
	lat := [][]float64{
		{100, 200, 900},
		{102, 5000, 902}, // a pause lands on op 1 in this pass
		{104, 204, 9000}, // and on op 2 in this one
		{106, 206, 906},
		{108, 7000, 908},
	}
	got := perOpLatency(lat)
	want := []float64{102, 204, 902} // the lower quartile of five samples is the second smallest
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("perOpLatency = %v, want %v", got, want)
		}
	}
	if p := quantile(got, 1); !near(p, 902) {
		t.Errorf("max over ops = %g, want the slow op's 902", p)
	}
}

func TestIQRFrac(t *testing.T) {
	if got := iqrFrac([]float64{90, 100, 110, 100, 100}); !near(got, 0) {
		t.Errorf("iqrFrac = %g, want 0", got)
	}
	if got := iqrFrac([]float64{80, 90, 100, 110, 120}); !near(got, 0.2) {
		t.Errorf("iqrFrac = %g, want 0.2", got)
	}
}
