package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram reports count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%g) on empty histogram = %g, want 0", q, got)
		}
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Record(1234)
	if h.Count() != 1 || h.Sum() != 1234 || h.Max() != 1234 {
		t.Fatalf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	// Every quantile of a one-sample histogram is that sample: the bucket
	// upper bound clamps to the observed max.
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 1234 {
			t.Fatalf("Quantile(%g) = %g, want 1234", q, got)
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3},
		{4095, 12}, {4096, 13}, {4097, 13},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// bucketHi is the inclusive upper bound: bucketOf(bucketHi(b)) == b.
	// Bucket 64 is unreachable for int64 samples (bucketHi clamps to
	// MaxInt64, which lives in bucket 63), so stop at 63.
	for b := 1; b < 64; b++ {
		if got := bucketOf(bucketHi(b)); got != b {
			t.Errorf("bucketOf(bucketHi(%d)) = %d, want %d", b, got, b)
		}
	}
	if bucketHi(0) != 0 {
		t.Errorf("bucketHi(0) = %d, want 0", bucketHi(0))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast samples and 10 slow ones: p50 must land in the fast bucket,
	// p95 and p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Record(100)
	}
	for i := 0; i < 10; i++ {
		h.Record(100000)
	}
	if p50 := h.Quantile(0.50); p50 > 255 {
		t.Errorf("p50 = %g, want within the fast bucket (<= 255)", p50)
	}
	if p99 := h.Quantile(0.99); p99 != 100000 {
		t.Errorf("p99 = %g, want 100000 (clamped to max)", p99)
	}
	if h.Quantile(1) != 100000 {
		t.Errorf("Quantile(1) = %g, want exact max 100000", h.Quantile(1))
	}

	// 9 fast samples and 1 slow one: the slow sample is the 10th of 10, and
	// both tail quantiles rank ⌈q·10⌉ = 10 — a floored rank reports the fast
	// bucket and loses the tail.
	var small Histogram
	for i := 0; i < 9; i++ {
		small.Record(100)
	}
	small.Record(100000)
	if p50 := small.Quantile(0.50); p50 > 255 {
		t.Errorf("9+1 samples: p50 = %g, want within the fast bucket (<= 255)", p50)
	}
	for _, q := range []float64{0.95, 0.99} {
		if got := small.Quantile(q); got != 100000 {
			t.Errorf("9+1 samples: Quantile(%g) = %g, want the slow sample 100000", q, got)
		}
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < per; i++ {
				h.Record(seed*1000 + i)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Max() != workers*1000+per-1 {
		t.Fatalf("max = %d, want %d", h.Max(), workers*1000+per-1)
	}
}

func TestDisabledRegistryAllocatesNothing(t *testing.T) {
	var r *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		r.RecordQuery(QuerySample{WallNanos: 42, Rows: 1})
		r.RecordShed()
		r.RecordBreakerTrip()
		r.RecordOperators(nil)
		r.RecordCalibration(nil)
		r.LogQuery(nil)
		c.Add(1)
		g.Set(64)
		h.Record(42)
	})
	if allocs != 0 {
		t.Fatalf("disabled registry allocated %.1f per run, want 0", allocs)
	}
}

func TestNilRegistryReadsAreSafe(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports Enabled")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry Snapshot not nil")
	}
	if r.CalibrationReports() != nil {
		t.Fatal("nil registry CalibrationReports not nil")
	}
	if r.RecentQueries(0) != nil {
		t.Fatal("nil registry RecentQueries not nil")
	}
}

func TestRegistryRecordQuery(t *testing.T) {
	r := NewRegistry(0)
	r.RecordQuery(QuerySample{WallNanos: 1000, Rows: 5, SeqPageReads: 10, RandPageReads: 2, Retries: 1})
	r.RecordQuery(QuerySample{WallNanos: 9000, Failed: true})
	r.RecordShed()
	s := r.Snapshot()
	if s.Queries != 2 || s.Errors != 1 || s.Sheds != 1 || s.Retries != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.LatencyNanos.Count != 2 {
		t.Fatalf("latency count = %d, want 2", s.LatencyNanos.Count)
	}
	// Failed queries contribute latency but not I/O or row volume.
	if s.PagesRead.Count != 1 || s.PagesRead.Sum != 12 || s.RowsOut.Sum != 5 {
		t.Fatalf("pages_read %+v rows_out %+v", s.PagesRead, s.RowsOut)
	}
}

func TestRegistryRecordOperators(t *testing.T) {
	r := NewRegistry(0)
	shared := &PlanStats{Op: "file-scan", Rel: "E1", Counters: Counters{Rows: 7, SeqPageReads: 3}}
	tree := &PlanStats{
		Op:       "nl-join",
		Counters: Counters{Rows: 2},
		Children: []*PlanStats{shared, shared}, // shared node charged once
	}
	r.RecordOperators(tree)
	s := r.Snapshot()
	if s.Operators["file-scan"].Executions != 1 {
		t.Fatalf("shared scan charged %d times, want 1", s.Operators["file-scan"].Executions)
	}
	if s.Operators["nl-join"].Counters.Rows != 2 {
		t.Fatalf("join rows = %d", s.Operators["nl-join"].Counters.Rows)
	}
	if s.Relations["E1"].Counters.SeqPageReads != 3 {
		t.Fatalf("relation aggregate %+v", s.Relations["E1"])
	}
}

func TestQErrorVerdicts(t *testing.T) {
	cases := []struct {
		lo, hi, actual float64
		wantQ          float64
		wantViolation  bool
	}{
		{10, 100, 50, 1, false},
		{10, 100, 10, 1, false},  // boundary: inclusive
		{10, 100, 100, 1, false}, // boundary: inclusive
		{10, 100, 400, 4, true},  // above by 4x
		{10, 100, 2, 5, true},    // below: 10/2
		{0, 0, 0, 1, false},      // degenerate zero interval
		{0, 0.5, 3, 3, true},     // 1-floored hi
	}
	for _, c := range cases {
		q, viol := qError(c.lo, c.hi, c.actual)
		if q != c.wantQ || viol != c.wantViolation {
			t.Errorf("qError(%g,%g,%g) = (%g,%v), want (%g,%v)",
				c.lo, c.hi, c.actual, q, viol, c.wantQ, c.wantViolation)
		}
	}
}

func TestCalibrateTreeAndPlanCost(t *testing.T) {
	scan := &PlanStats{
		Op: "file-scan", Rel: "E1",
		Counters:  Counters{Rows: 400},
		Predicted: &Prediction{CardLo: 50, CardHi: 100},
	}
	root := &PlanStats{Op: "select", Counters: Counters{Rows: 400}, Children: []*PlanStats{scan}}
	verdicts := Calibrate(root, 1.0, 2.0, 8.0)
	if len(verdicts) != 2 {
		t.Fatalf("got %d verdicts, want 2 (one cardinality, one cost)", len(verdicts))
	}
	card := verdicts[0]
	if card.Kind != "cardinality" || card.Rel != "E1" || card.QError != 4 || !card.Violation {
		t.Fatalf("cardinality verdict %+v", card)
	}
	if !scan.Violation || scan.QError != 4 {
		t.Fatalf("node not annotated: q=%g violation=%v", scan.QError, scan.Violation)
	}
	costV := verdicts[1]
	if costV.Kind != "cost" || costV.QError != 4 || !costV.Violation || costV.Label != "plan" {
		t.Fatalf("cost verdict %+v", costV)
	}
}

func TestCalibrationReportsSorted(t *testing.T) {
	r := NewRegistry(0)
	r.RecordCalibration([]CalibrationVerdict{
		{Kind: "cardinality", Op: "file-scan", Rel: "A", QError: 2, Violation: true},
		{Kind: "cardinality", Op: "file-scan", Rel: "B", QError: 16, Violation: true},
		{Kind: "cardinality", Op: "file-scan", Rel: "C", QError: 1},
	})
	reps := r.CalibrationReports()
	if len(reps) != 3 {
		t.Fatalf("got %d reports", len(reps))
	}
	if reps[0].Rel != "B" || reps[0].MaxQError != 16 {
		t.Fatalf("worst offender first: got %+v", reps[0])
	}
	if reps[2].Rel != "C" || reps[2].Violations != 0 {
		t.Fatalf("clean relation last: got %+v", reps[2])
	}
	if r.Violations.Load() != 2 || r.WorstQError.Load() != 16 {
		t.Fatalf("violations=%d worst=%g", r.Violations.Load(), r.WorstQError.Load())
	}
}

func TestQueryLogRingWrap(t *testing.T) {
	r := NewRegistry(4)
	for i := 0; i < 10; i++ {
		r.LogQuery(&RunRecord{Name: fmt.Sprintf("q%d", i)})
	}
	got := r.RecentQueries(0)
	if len(got) != 4 {
		t.Fatalf("retained %d records, want 4", len(got))
	}
	for i, rec := range got {
		if want := fmt.Sprintf("q%d", 6+i); rec.Name != want {
			t.Fatalf("record %d = %s, want %s (oldest first)", i, rec.Name, want)
		}
	}
	if newest := r.RecentQueries(2); len(newest) != 2 || newest[1].Name != "q9" {
		t.Fatalf("RecentQueries(2) = %v", newest)
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(4)
	g.SetMax(2)
	if g.Load() != 4 {
		t.Fatalf("gauge = %g, want 4", g.Load())
	}
	g.Set(1)
	if g.Load() != 1 {
		t.Fatalf("Set does not override: %g", g.Load())
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry(0)
	reg.RecordQuery(QuerySample{WallNanos: 1000, Rows: 3})
	reg.RecordCalibration([]CalibrationVerdict{
		{Kind: "cardinality", Op: "file-scan", Rel: "E1", QError: 4, Violation: true},
	})
	reg.LogQuery(&RunRecord{Name: "q0"})
	reg.LogQuery(&RunRecord{Name: "q1"})
	h := Handler(func() *Registry { return reg })

	srv := httptest.NewServer(h)
	defer srv.Close()

	t.Run("metrics", func(t *testing.T) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		if rr.Code != 200 {
			t.Fatalf("status %d", rr.Code)
		}
		var snap RegistrySnapshot
		if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if snap.Queries != 1 || snap.Violations != 1 {
			t.Fatalf("snapshot %+v", snap)
		}
	})
	t.Run("calibration", func(t *testing.T) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/calibration", nil))
		var reps []CalibrationReport
		if err := json.Unmarshal(rr.Body.Bytes(), &reps); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if len(reps) != 1 || reps[0].Rel != "E1" {
			t.Fatalf("reports %+v", reps)
		}
	})
	t.Run("queries", func(t *testing.T) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/queries?n=1", nil))
		if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		lines := strings.Split(strings.TrimSpace(rr.Body.String()), "\n")
		if len(lines) != 1 {
			t.Fatalf("got %d lines, want 1", len(lines))
		}
		var rec RunRecord
		if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Name != "q1" {
			t.Fatalf("line %q err %v", lines[0], err)
		}
	})
	t.Run("bad-n", func(t *testing.T) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/queries?n=-3", nil))
		if rr.Code != 400 {
			t.Fatalf("status %d, want 400", rr.Code)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		off := Handler(func() *Registry { return nil })
		for _, path := range []string{"/metrics", "/calibration", "/queries"} {
			rr := httptest.NewRecorder()
			off.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
			if rr.Code != 503 {
				t.Fatalf("%s status %d, want 503", path, rr.Code)
			}
		}
	})
}

func TestCompareReportsCurrentOnlyMetrics(t *testing.T) {
	base := &RunRecord{Name: "r", Metrics: map[string]float64{"rows": 10}, SimCostTotal: 1}
	cur := &RunRecord{Name: "r", Metrics: map[string]float64{"rows": 10, "q-error-max": 4}, SimCostTotal: 1}
	deltas := Compare(base, cur, 0.1)
	var found bool
	for _, d := range deltas {
		if d.Metric == "q-error-max" {
			found = true
			if d.Gating {
				t.Fatalf("current-only metric gated: %+v", d)
			}
		}
	}
	if !found {
		t.Fatal("current-only metric not reported")
	}
}
