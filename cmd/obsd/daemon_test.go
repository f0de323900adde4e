package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"dynplan"
)

// The lane tests wire obsd in-process from a command line (no -addr, no
// pause between workload queries), run the demo workload to completion,
// and check the endpoints through the handler main serves.

// boot wires a daemon from an obsd command line and drives its workload.
func boot(t *testing.T, args ...string) *daemon {
	t.Helper()
	d, err := newDaemon(args)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.workload(); err != nil {
		t.Fatalf("workload: %v", err)
	}
	return d
}

// serve sends one request through the daemon's handler.
func serve(d *daemon, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	d.handler.ServeHTTP(rec, req)
	return rec
}

// getJSON GETs path and decodes its JSON body into v.
func getJSON(t *testing.T, d *daemon, path string, v any) {
	t.Helper()
	rec := serve(d, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// getLines GETs an ndjson endpoint and decodes one T per line.
func getLines[T any](t *testing.T, d *daemon, path string) []T {
	t.Helper()
	rec := serve(d, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	var out []T
	for dec := json.NewDecoder(rec.Body); dec.More(); {
		var v T
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		out = append(out, v)
	}
	return out
}

// TestObsLane: the governed demo workload over a 4x-stale catalog fills
// /metrics with counts and histograms, the calibration table names the
// stale relation, and /queries serves the run records.
func TestObsLane(t *testing.T) {
	d := boot(t, "-n", "30", "-interval", "0")

	var m dynplan.MetricsSnapshot
	getJSON(t, d, "/metrics", &m)
	if m.Queries < 30 || m.Executions < m.Queries {
		t.Errorf("queries %d, executions %d: want >= 30 queries, executions >= queries", m.Queries, m.Executions)
	}
	if m.LatencyNanos.Count != m.Queries || m.LatencyNanos.P99 <= 0 {
		t.Errorf("latency histogram %+v: want count == %d queries and p99 > 0", m.LatencyNanos, m.Queries)
	}
	if len(m.Operators) == 0 || len(m.Relations) == 0 {
		t.Errorf("operators %d, relations %d: want both aggregates populated", len(m.Operators), len(m.Relations))
	}

	var reps []dynplan.CalibrationReport
	getJSON(t, d, "/calibration", &reps)
	if !slices.ContainsFunc(reps, func(r dynplan.CalibrationReport) bool { return r.Rel == "E1" && r.MaxQError >= 4 }) {
		t.Errorf("calibration table %+v does not flag E1 with max q-error >= 4", reps)
	}

	recs := getLines[dynplan.RunRecord](t, d, "/queries?n=5")
	if len(recs) != 5 {
		t.Fatalf("/queries?n=5 served %d records", len(recs))
	}
	for _, r := range recs {
		if r.Name != "query" || r.WallNanos <= 0 {
			t.Errorf("record name %q wall_ns %d: want \"query\" and > 0", r.Name, r.WallNanos)
		}
	}
}

// TestReoptLane: with -reopt the stale E1 trips the cardinality guards
// mid-flight; the remedies show in the /metrics counters with a balanced
// temp ledger, and violation events naming E1 show in /queries.
func TestReoptLane(t *testing.T) {
	d := boot(t, "-n", "30", "-interval", "0", "-reopt")

	var m dynplan.MetricsSnapshot
	getJSON(t, d, "/metrics", &m)
	if m.Errors != 0 || m.Reopts < 1 {
		t.Errorf("errors %d, reopts %d: want 0 errors and >= 1 reopt", m.Errors, m.Reopts)
	}
	if m.ReoptSwitches+m.ReoptReplans+m.ReoptDegrades < 1 {
		t.Errorf("no remedy taken: switches %d replans %d degrades %d", m.ReoptSwitches, m.ReoptReplans, m.ReoptDegrades)
	}
	if m.ReoptTempsCreated != m.ReoptTempsReleased {
		t.Errorf("temps created %d != released %d", m.ReoptTempsCreated, m.ReoptTempsReleased)
	}

	var violations int
	for _, r := range getLines[dynplan.RunRecord](t, d, "/queries?n=30") {
		for _, e := range r.Reopt {
			if e.Stage != "violation" || e.Rel != "E1" {
				continue
			}
			violations++
			if e.Observed <= 0 || e.QError < 4 || e.Attempt < 1 {
				t.Errorf("violation event %+v: want observed > 0, q-error >= 4, attempt >= 1", e)
			}
		}
	}
	if violations < 1 {
		t.Error("no violation event names E1 in /queries")
	}
}

// TestTraceLane: with -reopt -trace every query builds a span tree; the
// trees in /traces are complete and reconcile, /queries cross-references
// them, and /metrics carries the per-stage latency histograms.
func TestTraceLane(t *testing.T) {
	d := boot(t, "-n", "30", "-interval", "0", "-reopt", "-trace")
	traceID := regexp.MustCompile(`^t[0-9]{8}$`)
	pipeline := []string{"Record", "Admit", "Remedy"}

	traces := getLines[dynplan.TraceRecord](t, d, "/traces?n=5")
	if len(traces) != 5 {
		t.Fatalf("/traces?n=5 served %d traces", len(traces))
	}
	for _, tr := range traces {
		if !traceID.MatchString(tr.ID) || tr.WallNanos <= 0 || tr.Root == nil {
			t.Fatalf("trace id %q wall_ns %d root %v: want t%%08d, > 0, a root", tr.ID, tr.WallNanos, tr.Root)
		}
		var stages []string
		attempts := 0
		tr.Root.Walk(func(s *dynplan.TraceSpan) {
			if s.DurationNanos < 0 {
				t.Errorf("%s: span %s has negative duration %d", tr.ID, s.Name, s.DurationNanos)
			}
			switch s.Kind {
			case "stage":
				stages = append(stages, s.Name)
			case "attempt":
				attempts++
			}
		})
		if len(stages) < len(pipeline) || !slices.Equal(stages[:len(pipeline)], pipeline) {
			t.Errorf("%s: stage spans %v do not open with %v", tr.ID, stages, pipeline)
		}
		if n := countOf(stages, "Record"); n != 1 {
			t.Errorf("%s: %d Record stages, want 1", tr.ID, n)
		}
		if countOf(stages, "Run") < 1 {
			t.Errorf("%s: no Run stage", tr.ID)
		}
		if attempts < 1 {
			t.Errorf("%s: no re-opt attempt span", tr.ID)
		}
		if sum := tr.Root.ChildNanos(); sum > tr.Root.DurationNanos {
			t.Errorf("%s: sequential children sum %d ns > root %d ns", tr.ID, sum, tr.Root.DurationNanos)
		}
	}

	recs := getLines[dynplan.RunRecord](t, d, "/queries?n=5")
	if len(recs) != 5 {
		t.Fatalf("/queries?n=5 served %d records", len(recs))
	}
	for _, r := range recs {
		if !traceID.MatchString(r.TraceID) {
			t.Errorf("record trace_id %q does not reference a trace", r.TraceID)
		}
	}

	var m dynplan.MetricsSnapshot
	getJSON(t, d, "/metrics", &m)
	if m.Traces < 30 || m.StageLatency["Record"].Count < 30 || m.StageLatency["Run"].Count < 30 {
		t.Errorf("traces %d, Record latency count %d, Run latency count %d: want all >= 30",
			m.Traces, m.StageLatency["Record"].Count, m.StageLatency["Run"].Count)
	}
}

func countOf(names []string, name string) int {
	n := 0
	for _, s := range names {
		if s == name {
			n++
		}
	}
	return n
}

// cacheLaneSQL is the prepared statement the cache lane's tenants fire.
const cacheLaneSQL = `{"sql":"SELECT * FROM E1, E2, E3 WHERE E1.a <= ?v1 AND E2.a <= ?v2 AND E3.a <= ?v3 AND E1.jh = E2.jl AND E2.jh = E3.jl","selectivities":{"v1":0.1,"v2":0.2,"v3":0.3},"memory_pages":64,"max_rows":0}`

// TestCacheLane: with no demo workload (-n 0), four tenants fire 25
// prepared statements each, concurrently. Every response succeeds with
// one shared plan digest, the plan cache serves > 90 % of lookups, and
// the per-tenant admission stats and cache-hit flags surface in /metrics
// and /queries.
func TestCacheLane(t *testing.T) {
	d := boot(t, "-n", "0")
	tenants := []string{"alpha", "beta", "gamma", "delta"}

	var mu sync.Mutex
	var resps []queryResponse
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rec := postQuery(d, tenant)
				var resp queryResponse
				if rec.Code != http.StatusOK {
					t.Errorf("tenant %s: status %d: %s", tenant, rec.Code, rec.Body)
				} else if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("tenant %s: %v", tenant, err)
				}
				mu.Lock()
				resps = append(resps, resp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	digests := map[string]bool{}
	hits := 0
	for _, r := range resps {
		if r.RowCount <= 0 || r.PlanDigest == "" {
			t.Errorf("response row_count %d plan_digest %q: want rows and a digest", r.RowCount, r.PlanDigest)
		}
		digests[r.PlanDigest] = true
		if r.CacheHit {
			hits++
		}
	}
	if len(resps) != 100 || len(digests) != 1 || hits < 90 {
		t.Errorf("%d responses, %d distinct digests, %d cache hits: want 100, 1, >= 90", len(resps), len(digests), hits)
	}

	var m dynplan.MetricsSnapshot
	getJSON(t, d, "/metrics", &m)
	if m.Errors != 0 || m.Queries < 100 {
		t.Errorf("errors %d, queries %d: want 0 and >= 100", m.Errors, m.Queries)
	}
	if ratio := float64(m.PlanCacheHits) / float64(m.PlanCacheHits+m.PlanCacheMisses); !(ratio > 0.9) {
		t.Errorf("plan-cache hit ratio %.3f (%d hits, %d misses), want > 0.9", ratio, m.PlanCacheHits, m.PlanCacheMisses)
	}
	if m.Activation.Count < 100 {
		t.Errorf("activation histogram count %d, want >= 100", m.Activation.Count)
	}
	if len(m.Tenants) != len(tenants) {
		t.Errorf("/metrics tenants %v, want %v", m.Tenants, tenants)
	}
	for name, a := range m.Tenants {
		if a.Queries != 25 || a.QueueWait.Count != 25 {
			t.Errorf("tenant %s: queries %d, queue-wait count %d, want 25 and 25", name, a.Queries, a.QueueWait.Count)
		}
	}

	recs := getLines[dynplan.RunRecord](t, d, "/queries?n=10")
	if len(recs) != 10 {
		t.Fatalf("/queries?n=10 served %d records", len(recs))
	}
	for _, r := range recs {
		if r.Tenant == "" || !r.CacheHit {
			t.Errorf("record tenant %q cache_hit %v: want a tenant and a cache hit", r.Tenant, r.CacheHit)
		}
	}
}

// postQuery POSTs the cache lane's statement under a tenant ("" for none).
func postQuery(d *daemon, tenant string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(cacheLaneSQL))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	return serve(d, req)
}
