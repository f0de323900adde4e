package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestTraceBuildsTree(t *testing.T) {
	tr := NewTrace("t00000001")
	root := tr.Start(nil, "Record", SpanStage)
	child := tr.Start(root, "Run", SpanStage)
	child.AddWait(WaitRetryBackoff, 100)
	child.AddWait(WaitRetryBackoff, 50) // merges into the same entry
	child.AddWait(WaitGrant, 0)         // dropped: non-positive
	child.End()
	root.End()
	rec := tr.Finish(nil)

	if rec.ID != "t00000001" || rec.Root != root {
		t.Fatalf("record = %+v", rec)
	}
	if len(root.Children) != 1 || root.Children[0] != child {
		t.Fatalf("root children = %v", root.Children)
	}
	if len(child.Waits) != 1 || child.Waits[0] != (WaitState{Kind: WaitRetryBackoff, Nanos: 150}) {
		t.Fatalf("waits = %+v, want one merged retry-backoff of 150", child.Waits)
	}
	if child.WaitNanos() != 150 {
		t.Fatalf("WaitNanos = %d", child.WaitNanos())
	}
	if root.ChildNanos() != child.DurationNanos {
		t.Fatalf("ChildNanos = %d, want child duration %d", root.ChildNanos(), child.DurationNanos)
	}
}

func TestTraceFinishClosesOpenSpans(t *testing.T) {
	tr := NewTrace("t1")
	root := tr.Start(nil, "Record", SpanStage)
	open := tr.Start(root, "Run", SpanStage)
	// Neither span ended: an error unwound past them.
	rec := tr.Finish(errors.New("boom"))
	if rec.Error != "boom" {
		t.Fatalf("error = %q", rec.Error)
	}
	for _, s := range []*Span{root, open} {
		if s.DurationNanos < 0 {
			t.Fatalf("span %q still open after Finish", s.Name)
		}
		if s.StartNanos+s.DurationNanos > rec.WallNanos {
			t.Fatalf("span %q ends at %d, past wall %d", s.Name, s.StartNanos+s.DurationNanos, rec.WallNanos)
		}
	}
}

func TestTraceEndIdempotent(t *testing.T) {
	tr := NewTrace("t1")
	s := tr.Start(nil, "Run", SpanStage)
	s.End()
	d := s.DurationNanos
	s.End()
	if s.DurationNanos != d {
		t.Fatalf("second End moved the duration: %d -> %d", d, s.DurationNanos)
	}
}

func TestTraceArenaOverflow(t *testing.T) {
	// A trace deeper than the arena must keep working, heap fallback and
	// all: spans stay addressable and the tree stays intact.
	tr := NewTrace("t1")
	root := tr.Start(nil, "root", SpanStage)
	for i := 0; i < traceArenaSpans+16; i++ {
		s := tr.Start(root, fmt.Sprintf("s%d", i), SpanAttempt)
		s.End()
	}
	root.End()
	rec := tr.Finish(nil)
	if got := len(rec.Root.Children); got != traceArenaSpans+16 {
		t.Fatalf("children = %d, want %d", got, traceArenaSpans+16)
	}
	for i, c := range rec.Root.Children {
		if want := fmt.Sprintf("s%d", i); c.Name != want {
			t.Fatalf("child %d = %q, want %q (arena overflow corrupted the tree)", i, c.Name, want)
		}
	}
}

func TestNilTraceAndSpanAreSafe(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Finish(nil) != nil {
		t.Fatal("nil trace not inert")
	}
	s := tr.Start(nil, "x", SpanStage)
	if s != nil {
		t.Fatal("nil trace handed out a span")
	}
	// All span methods no-op on nil.
	s.End()
	s.AddWait(WaitGrant, 5)
	s.Walk(func(*Span) { t.Fatal("nil span walked") })
	if s.WaitNanos() != 0 || s.ChildNanos() != 0 || s.SelfNanos() != 0 {
		t.Fatal("nil span reports time")
	}
	var rec *TraceRecord
	if rec.Unattributed() != 0 || rec.Render() != "" {
		t.Fatal("nil record not inert")
	}
}

func TestTraceRecordRenderAndJSON(t *testing.T) {
	tr := NewTrace("t00000007")
	root := tr.Start(nil, "Record", SpanStage)
	run := tr.Start(root, "Remedy", SpanStage)
	rp := tr.Start(run, "replan-1", SpanReplan)
	rp.AddWait(WaitReplanPlanning, 1500)
	rp.End()
	run.End()
	root.End()
	rec := tr.Finish(nil)

	out := rec.Render()
	for _, want := range []string{"TRACE t00000007", "Record", "Remedy", "replan-1", "[replan-planning"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	// The record round-trips through JSON with the tree intact.
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceRecord
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != rec.ID || back.Root == nil || len(back.Root.Children) != 1 {
		t.Fatalf("round-trip lost the tree: %+v", back)
	}
	if back.Root.Children[0].Children[0].Kind != SpanReplan {
		t.Fatalf("round-trip lost span kinds")
	}
}

func TestRegistryRecordTrace(t *testing.T) {
	r := NewRegistry()
	tr := NewTrace("t00000001")
	root := tr.Start(nil, "Record", SpanStage)
	run := tr.Start(root, "Run", SpanStage)
	run.End()
	root.End()
	r.Record(&Outcome{Trace: tr.Finish(nil)})

	recent := r.RecentTraces(0)
	if len(recent) != 1 || recent[0].ID != "t00000001" {
		t.Fatalf("recent traces = %+v", recent)
	}
	snap := r.Snapshot()
	if snap.Traces != 1 {
		t.Fatalf("snapshot traces = %d", snap.Traces)
	}
	for _, stage := range []string{"Record", "Run"} {
		if h, ok := snap.StageLatency[stage]; !ok || h.Count != 1 {
			t.Fatalf("stage %q latency = %+v", stage, snap.StageLatency)
		}
	}
	// Nil registry and an untraced query are inert.
	var nilReg *Registry
	nilReg.Record(&Outcome{Trace: recent[0]})
	r.Record(&Outcome{})
	if got := r.Snapshot().Traces; got != 1 {
		t.Fatalf("untraced query counted: %d", got)
	}
}

// TestQueryLogConcurrentWriters pins the ring's snapshot consistency:
// concurrent appends across the wraparound boundary must never lose the
// ring's shape — every snapshot holds at most capacity records, each
// non-nil, and the final one a full ring.
func TestQueryLogConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const writers, per, capacity = 8, 200, DefaultQueryLogCap
	var wws, rws sync.WaitGroup
	stop := make(chan struct{})
	// A reader races the writers, checking every snapshot is whole.
	rws.Add(1)
	go func() {
		defer rws.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			recs := r.RecentQueries(0)
			if len(recs) > capacity {
				t.Errorf("snapshot holds %d records, cap is %d", len(recs), capacity)
				return
			}
			for _, rec := range recs {
				if rec == nil {
					t.Error("snapshot holds a nil record")
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wws.Add(1)
		go func(w int) {
			defer wws.Done()
			for i := 0; i < per; i++ {
				r.Record(&Outcome{Log: &RunRecord{Name: fmt.Sprintf("w%d-q%d", w, i)}})
			}
		}(w)
	}
	wws.Wait()
	close(stop)
	rws.Wait()
	got := r.RecentQueries(0)
	if len(got) != capacity {
		t.Fatalf("final snapshot holds %d records, want full ring of %d", len(got), capacity)
	}
	for _, rec := range got {
		if rec == nil {
			t.Fatal("final snapshot holds a nil record")
		}
	}
}

// TestHistogramQuantileBucketBoundaries pins quantiles when samples sit
// exactly on the log-bucket edges: a power-of-two sample lands in the
// bucket whose upper bound covers it, the reported quantile never
// undershoots the sample, and Quantile(1) is the exact observed max.
func TestHistogramQuantileBucketBoundaries(t *testing.T) {
	for _, v := range []int64{1, 2, 4, 1024, 4096, 1 << 20} {
		var h Histogram
		h.Record(v)
		if q := h.Quantile(0.5); q < float64(v) {
			t.Errorf("single sample %d: p50 = %g undershoots it", v, q)
		}
		if q := h.Quantile(1); q != float64(v) {
			t.Errorf("single sample %d: Quantile(1) = %g, want exact max", v, q)
		}
	}
	// Two samples a bucket apart: p50 stays in the lower bucket, p100 is
	// the max.
	var h Histogram
	h.Record(1024) // bucket 11
	h.Record(2048) // bucket 12
	if q := h.Quantile(0.5); q < 1024 || q > 2047 {
		t.Errorf("p50 = %g, want within the 1024-sample's bucket [1024, 2047]", q)
	}
	if q := h.Quantile(1); q != 2048 {
		t.Errorf("Quantile(1) = %g, want 2048", q)
	}
}

// TestHandlerErrorPaths pins the routing contract: unknown routes 404,
// wrong methods 405 with an Allow header, and the traces endpoint
// behaves like the queries one.
func TestHandlerErrorPaths(t *testing.T) {
	reg := NewRegistry()
	tr := NewTrace("t00000001")
	tr.Start(nil, "Record", SpanStage).End()
	reg.Record(&Outcome{Trace: tr.Finish(nil)})
	h := Handler(func() *Registry { return reg }, reg.Snapshot)

	t.Run("unknown-route-404", func(t *testing.T) {
		for _, path := range []string{"/", "/nope", "/metrics/extra"} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
			if rr.Code != 404 {
				t.Errorf("GET %s status = %d, want 404", path, rr.Code)
			}
		}
	})
	t.Run("method-not-allowed-405", func(t *testing.T) {
		for _, path := range []string{"/metrics", "/calibration", "/queries", "/traces"} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("POST", path, nil))
			if rr.Code != 405 {
				t.Errorf("POST %s status = %d, want 405", path, rr.Code)
			}
			if allow := rr.Header().Get("Allow"); !strings.Contains(allow, "GET") {
				t.Errorf("POST %s Allow = %q, want GET advertised", path, allow)
			}
		}
	})
	t.Run("traces-ndjson", func(t *testing.T) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/traces?n=1", nil))
		if rr.Code != 200 {
			t.Fatalf("status %d", rr.Code)
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		var rec TraceRecord
		if err := json.Unmarshal([]byte(strings.TrimSpace(rr.Body.String())), &rec); err != nil || rec.ID != "t00000001" {
			t.Fatalf("body %q err %v", rr.Body.String(), err)
		}
	})
	t.Run("traces-bad-n", func(t *testing.T) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/traces?n=x", nil))
		if rr.Code != 400 {
			t.Fatalf("status %d, want 400", rr.Code)
		}
	})
	t.Run("traces-disabled-503", func(t *testing.T) {
		var none *Registry
		off := Handler(func() *Registry { return none }, none.Snapshot)
		rr := httptest.NewRecorder()
		off.ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
		if rr.Code != 503 {
			t.Fatalf("status %d, want 503", rr.Code)
		}
	})
}
