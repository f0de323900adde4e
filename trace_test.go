package dynplan

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dynplan/internal/obs"
)

// spansOfKind collects the trace's spans of one kind, pre-order.
func spansOfKind(rec *TraceRecord, kind string) []*TraceSpan {
	var out []*TraceSpan
	rec.Root.Walk(func(s *TraceSpan) {
		if s.Kind == kind {
			out = append(out, s)
		}
	})
	return out
}

// requireTraceShape asserts the invariants every finished trace must
// satisfy: a sealed tree (no open spans), non-negative offsets and
// durations within the wall-clock, and per-span reconciliation — the
// sum of a span's sequential children plus its attributed waits must
// not exceed its own duration beyond clock-granularity tolerance.
func requireTraceShape(t *testing.T, rec *TraceRecord) {
	t.Helper()
	if rec == nil || rec.Root == nil {
		t.Fatal("execution carried no trace")
	}
	rec.Root.Walk(func(s *TraceSpan) {
		if s.DurationNanos < 0 {
			t.Errorf("span %q left open (duration %d); Finish must seal every span", s.Name, s.DurationNanos)
		}
		if s.StartNanos < 0 || s.StartNanos > rec.WallNanos {
			t.Errorf("span %q starts at %d, outside the trace's [0, %d] wall-clock", s.Name, s.StartNanos, rec.WallNanos)
		}
		explained := s.ChildNanos() + s.WaitNanos()
		tol := s.DurationNanos/10 + 2_000_000 // scheduling + clock granularity
		if explained > s.DurationNanos+tol {
			t.Errorf("span %q over-attributed: children %d + waits %d > duration %d",
				s.Name, s.ChildNanos(), s.WaitNanos(), s.DurationNanos)
		}
	})
	if rec.Root.DurationNanos > rec.WallNanos {
		t.Errorf("root duration %d exceeds wall %d", rec.Root.DurationNanos, rec.WallNanos)
	}
	if ua := rec.Unattributed(); ua > rec.WallNanos {
		t.Errorf("unattributed time %d exceeds the query wall %d", ua, rec.WallNanos)
	}
}

// TestTraceGovernedParallelReopt is the tentpole acceptance: one traced
// query through the deepest stack — admission, grant, breaker, retry,
// degradation ladder, re-optimization, parallel activation — must yield
// a complete span tree where every pipeline stage appears exactly once
// (Activate and Run once per re-opt attempt), every exchange worker
// appears exactly once under its exchange, all durations are
// non-negative, and attributed waits plus child spans reconcile to each
// span's duration. The same trace must then be reachable end to end:
// on the result, in EXPLAIN ANALYZE, in the /queries cross-reference,
// in the per-stage latency histograms, and over the /traces endpoint.
func TestTraceGovernedParallelReopt(t *testing.T) {
	sys, q, db := reoptStaleDB(t, 3, "C2", 4)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db.EnableObservatory()
	db.SetGovernor(GovernorConfig{TotalPages: 256, MaxConcurrent: 2})
	defer db.ClearGovernor()

	res, err := db.Exec(context.Background(), mod, resilBindings(3, 0.5, 96), ExecOptions{
		Governed: true, Resilient: true, Parallel: true, MaxDOP: 2,
		Reopt: &ReoptPolicy{Query: q},
		Trace: true,
	})
	if err != nil {
		t.Fatalf("traced execution failed: %v", err)
	}
	if res.TraceID == "" {
		t.Fatal("traced execution carries no TraceID")
	}
	if res.Trace == nil || res.Trace.ID != res.TraceID {
		t.Fatalf("result trace = %+v, want record with ID %q", res.Trace, res.TraceID)
	}
	requireTraceShape(t, res.Trace)

	// Every pipeline stage exactly once, in canonical order; Activate and
	// Run re-enter once per re-optimization attempt.
	stages := spansOfKind(res.Trace, obs.SpanStage)
	var names []string
	for _, s := range stages {
		names = append(names, s.Name)
	}
	attempts := spansOfKind(res.Trace, obs.SpanAttempt)
	if len(attempts) < 1 {
		t.Fatalf("no re-opt attempt spans in %v", names)
	}
	wantHead := []string{"Record", "Admit", "Grant", "Breaker", "Retry", "Degrade", "Reopt"}
	if len(names) != len(wantHead)+2*len(attempts) {
		t.Fatalf("stage spans = %v, want %v then Activate+Run per attempt (%d attempts)",
			names, wantHead, len(attempts))
	}
	for i, w := range wantHead {
		if names[i] != w {
			t.Fatalf("stage %d = %q, want %q (all: %v)", i, names[i], w, names)
		}
	}
	for i := 0; i < len(attempts); i++ {
		if a, r := names[len(wantHead)+2*i], names[len(wantHead)+2*i+1]; a != "Activate" || r != "Run" {
			t.Fatalf("attempt %d stages = %q,%q, want Activate,Run (all: %v)", i+1, a, r, names)
		}
	}

	// Exchange operators carry one concurrent span per worker, exactly DOP
	// of them, uniquely named.
	exchanges := spansOfKind(res.Trace, obs.SpanExchange)
	if len(exchanges) == 0 {
		t.Fatal("parallel execution produced no exchange spans")
	}
	dop := res.Parallel.DOP
	for _, ex := range exchanges {
		if !ex.Concurrent {
			t.Errorf("exchange span %q not marked concurrent", ex.Name)
		}
		seen := map[string]bool{}
		workers := 0
		for _, c := range ex.Children {
			if c.Kind != obs.SpanWorker {
				continue
			}
			workers++
			if !c.Concurrent {
				t.Errorf("worker span %q under %q not marked concurrent", c.Name, ex.Name)
			}
			if seen[c.Name] {
				t.Errorf("worker span %q appears twice under %q", c.Name, ex.Name)
			}
			seen[c.Name] = true
		}
		if dop > 1 && workers != dop {
			t.Errorf("exchange %q has %d worker spans, want DOP %d", ex.Name, workers, dop)
		}
	}

	// EXPLAIN ANALYZE gains the per-stage latency breakdown.
	if ea := res.ExplainAnalyze(DefaultParams()); !strings.Contains(ea, "TRACE "+res.TraceID) {
		t.Errorf("ExplainAnalyze carries no trace section:\n%s", ea)
	}

	// The run record cross-references the trace.
	recs := db.RecentQueries(0)
	if len(recs) == 0 || recs[len(recs)-1].TraceID != res.TraceID {
		t.Errorf("run record trace_id mismatch: records %d, want last to carry %q", len(recs), res.TraceID)
	}

	// Per-stage latency histograms populate for every stage that ran.
	snap := db.MetricsSnapshot()
	if snap.Traces < 1 {
		t.Errorf("snapshot traces = %d, want >= 1", snap.Traces)
	}
	for _, stage := range []string{"Record", "Run", "Reopt"} {
		h, ok := snap.StageLatency[stage]
		if !ok || h.Count < 1 {
			t.Errorf("stage latency histogram for %q missing or empty: %+v", stage, snap.StageLatency)
		}
	}

	// The /traces endpoint serves the same record as ndjson.
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/traces status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/traces Content-Type = %q, want application/x-ndjson", ct)
	}
	found := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("/traces line not a trace record: %v", err)
		}
		if rec.ID == res.TraceID {
			found = true
			if rec.Root == nil || rec.Root.Name != "Record" {
				t.Errorf("/traces record %q root = %+v, want the Record stage", rec.ID, rec.Root)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Errorf("/traces does not serve trace %q", res.TraceID)
	}
}

// TestTraceSerialReoptReplan pins the re-optimization spans on the
// serial path, where the hash-join build materializes and the stale
// catalog reliably trips a guard: at least two attempt spans (the
// tripped run and the remedied re-run) and a replan span carrying its
// planning time as an attributed wait.
func TestTraceSerialReoptReplan(t *testing.T) {
	sys, q, db := reoptStaleDB(t, 3, "C2", 4)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), p, resilBindings(3, 0.5, 64), ExecOptions{
		Reopt: &ReoptPolicy{Query: q},
		Trace: true,
	})
	if err != nil {
		t.Fatalf("traced re-optimizing execution failed: %v", err)
	}
	requireViolationOn(t, res.Reopt, "C2", 2)
	requireTraceShape(t, res.Trace)

	attempts := spansOfKind(res.Trace, obs.SpanAttempt)
	if len(attempts) < 2 {
		t.Fatalf("attempt spans = %d, want >= 2 (guard trip + remedied re-run)", len(attempts))
	}
	replans := spansOfKind(res.Trace, obs.SpanReplan)
	if !res.Reopt.Replanned {
		t.Fatalf("plan target with a Query must re-plan, account: %+v", res.Reopt)
	}
	if len(replans) != 1 {
		t.Fatalf("replan spans = %d, want exactly 1", len(replans))
	}
	var planning int64
	for _, w := range replans[0].Waits {
		if w.Kind == obs.WaitReplanPlanning {
			planning = w.Nanos
		}
	}
	if planning <= 0 {
		t.Errorf("replan span attributes no planning time: %+v", replans[0].Waits)
	}
}

// TestTraceDeterministicIDs pins the trace-ID sequence: per database,
// the Nth traced query is always t<N>, zero-padded — run records and
// traces cross-reference stably across restarts with the same workload.
func TestTraceDeterministicIDs(t *testing.T) {
	sys, q := resilChainSystem(t, 2)
	db := resilDatabase(t, sys)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	b := resilBindings(2, 0.5, 64)
	for i, want := range []string{"t00000001", "t00000002", "t00000003"} {
		res, err := db.Exec(context.Background(), p, b, ExecOptions{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.TraceID != want {
			t.Fatalf("traced query %d ID = %q, want %q", i+1, res.TraceID, want)
		}
	}
	// An untraced query in between must not consume an ID.
	if res, err := db.Exec(context.Background(), p, b, ExecOptions{}); err != nil || res.TraceID != "" {
		t.Fatalf("untraced query: err=%v TraceID=%q, want no trace", err, res.TraceID)
	}
	db.EnableTracing()
	defer db.tracing.Store(false)
	res, err := db.Exec(context.Background(), p, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "t00000004" {
		t.Fatalf("database-wide tracing ID = %q, want t00000004", res.TraceID)
	}
}
