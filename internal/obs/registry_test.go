package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count != 0 || h.Sum != 0 || h.Max != 0 {
		t.Fatalf("empty histogram reports count=%d sum=%d max=%d", h.Count, h.Sum, h.Max)
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
	if h.Count != 1 || h.Sum != 1234 || h.Max != 1234 {
		t.Fatalf("count=%d sum=%d max=%d", h.Count, h.Sum, h.Max)
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

func TestDisabledRegistryAllocatesNothing(t *testing.T) {
	var r *Registry
	o := &Outcome{WallNanos: 42, Rows: 1, Executions: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(o)
	})
	if allocs != 0 {
		t.Fatalf("disabled registry allocated %.1f per run, want 0", allocs)
	}
}

func TestNilRegistryReadsAreSafe(t *testing.T) {
	var r *Registry
	if r.Snapshot() != nil {
		t.Fatal("nil registry Snapshot not nil")
	}
	if r.CalibrationReports() != nil {
		t.Fatal("nil registry CalibrationReports not nil")
	}
	if r.RecentQueries(0) != nil || r.RecentTraces(0) != nil {
		t.Fatal("nil registry RecentQueries/RecentTraces not nil")
	}
}

func TestRegistryRecordQuery(t *testing.T) {
	r := NewRegistry()
	r.Record(&Outcome{Tenant: "a", WallNanos: 1000, Rows: 5, PagesRead: 12, Retries: 1, BackoffNanos: 50, Executions: 2})
	r.Record(&Outcome{Tenant: "a", WallNanos: 9000, Failed: true, Retries: 2, BackoffNanos: 70, Executions: 3,
		Reopt: []ReoptEvent{{Stage: "violation"}, {Stage: "replan", PlanningNanos: 5}}})
	r.Record(&Outcome{Tenant: "b", Shed: true})
	s := r.Snapshot()
	if s.Queries != 2 || s.Errors != 1 || s.Sheds != 1 || s.Retries != 3 || s.Executions != 5 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.LatencyNanos.Count != 2 || s.BackoffNanos.Count != 2 || s.BackoffNanos.Sum != 120 {
		t.Fatalf("latency %+v backoff %+v", s.LatencyNanos, s.BackoffNanos)
	}
	// Failed queries contribute latency but not I/O or row volume; their
	// events count like a successful query's.
	if s.PagesRead.Count != 1 || s.PagesRead.Sum != 12 || s.RowsOut.Sum != 5 {
		t.Fatalf("pages_read %+v rows_out %+v", s.PagesRead, s.RowsOut)
	}
	if s.Reopts != 1 || s.ReoptReplans != 1 || s.ReplanNanos.Count != 1 {
		t.Fatalf("event counters %+v", s)
	}
	if a, b := s.Tenants["a"], s.Tenants["b"]; a.Queries != 2 || a.Errors != 1 || a.QueueWait.Count != 2 || b.Queries != 0 || b.Sheds != 1 {
		t.Fatalf("tenants %+v", s.Tenants)
	}
	// A snapshot's histograms carry their quantiles.
	if s.LatencyNanos.P99 != 9000 || s.LatencyNanos.P50 < 1000 {
		t.Fatalf("latency quantiles %+v", s.LatencyNanos)
	}
}

func TestRegistryRecordOperators(t *testing.T) {
	r := NewRegistry()
	tree := &PlanStats{
		Op:       "nl-join",
		Counters: Counters{Rows: 2},
		Children: []*PlanStats{
			{Op: "file-scan", Rel: "E1", Counters: Counters{Rows: 7, SeqPageReads: 3}},
			{Op: "btree-scan", Rel: "E2", Counters: Counters{Rows: 5, RandPageReads: 4}},
		},
	}
	r.Record(&Outcome{Operators: tree})
	s := r.Snapshot()
	if s.Operators["file-scan"].Executions != 1 {
		t.Fatalf("scan charged %d times, want 1", s.Operators["file-scan"].Executions)
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
		q, viol := BandCheck{Lo: c.lo, Hi: c.hi}.Verdict(c.actual)
		if q != c.wantQ || viol != c.wantViolation {
			t.Errorf("Verdict(%g,%g,%g) = (%g,%v), want (%g,%v)",
				c.lo, c.hi, c.actual, q, viol, c.wantQ, c.wantViolation)
		}
	}
}

func TestCalibrateTreeAndPlanCost(t *testing.T) {
	ops := []PlanStats{{ // post-order: the scan, then its parent
		Op: "file-scan", Rel: "E1",
		Counters:  Counters{Rows: 400},
		Predicted: &Prediction{CardLo: 50, CardHi: 100},
	}, {Op: "select", Counters: Counters{Rows: 400}}}
	scan := &ops[0]
	ops[1].Children = []*PlanStats{scan}
	verdicts := Calibrate(ops, 1.0, 2.0, 8.0)
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
	r := NewRegistry()
	r.Record(&Outcome{Calibration: []CalibrationVerdict{
		{Kind: "cardinality", Op: "file-scan", Rel: "A", QError: 2, Violation: true},
		{Kind: "cardinality", Op: "file-scan", Rel: "B", QError: 16, Violation: true},
		{Kind: "cardinality", Op: "file-scan", Rel: "C", QError: 1},
	}})
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
	if s := r.Snapshot(); s.Violations != 2 || s.WorstQError != 16 {
		t.Fatalf("violations=%d worst=%g", s.Violations, s.WorstQError)
	}
}

// TestRingWrap pins the ring both recent-entry logs share: once full, an
// append overwrites the oldest entry, reads come back oldest first, and
// ?n=K keeps the newest K.
func TestRingWrap(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		name   string
		cap    int
		push   func(id string)
		recent func(max int) []string
	}{
		{"queries", DefaultQueryLogCap,
			func(id string) { r.Record(&Outcome{Log: &RunRecord{Name: id}}) },
			func(max int) (ids []string) {
				for _, rec := range r.RecentQueries(max) {
					ids = append(ids, rec.Name)
				}
				return ids
			}},
		{"traces", DefaultTraceLogCap,
			func(id string) { r.Record(&Outcome{Trace: &TraceRecord{ID: id}}) },
			func(max int) (ids []string) {
				for _, rec := range r.RecentTraces(max) {
					ids = append(ids, rec.ID)
				}
				return ids
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < c.cap+6; i++ {
				c.push(fmt.Sprintf("e%d", i))
			}
			got := c.recent(0)
			if len(got) != c.cap {
				t.Fatalf("retained %d entries, want %d", len(got), c.cap)
			}
			for i, id := range got {
				if want := fmt.Sprintf("e%d", 6+i); id != want {
					t.Fatalf("entry %d = %s, want %s (oldest first)", i, id, want)
				}
			}
			last := fmt.Sprintf("e%d", c.cap+5)
			if newest := c.recent(2); len(newest) != 2 || newest[1] != last {
				t.Fatalf("recent(2) = %v, want newest %s last", newest, last)
			}
		})
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Record(&Outcome{WallNanos: 1000, Rows: 3, Log: &RunRecord{Name: "q0"}, Calibration: []CalibrationVerdict{
		{Kind: "cardinality", Op: "file-scan", Rel: "E1", QError: 4, Violation: true},
	}})
	reg.Record(&Outcome{WallNanos: 2000, Log: &RunRecord{Name: "q1"}})
	h := Handler(func() *Registry { return reg }, reg.Snapshot)

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
		if snap.Queries != 2 || snap.Violations != 1 || snap.LatencyNanos.Max != 2000 {
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
		var none *Registry
		off := Handler(func() *Registry { return none }, none.Snapshot)
		for _, path := range []string{"/metrics", "/calibration", "/queries"} {
			rr := httptest.NewRecorder()
			off.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
			if rr.Code != 503 {
				t.Fatalf("%s status %d, want 503", path, rr.Code)
			}
		}
	})
}
