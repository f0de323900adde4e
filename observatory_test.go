package dynplan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynplan/internal/exec"
	"dynplan/internal/physical"
)

// TestObservatoryStaleCatalogFlagsViolation is the acceptance golden: a
// relation whose catalog cardinality is 4x stale must surface as an
// interval-calibration violation naming that relation with q-error >= 4.
func TestObservatoryStaleCatalogFlagsViolation(t *testing.T) {
	sys := New()
	// Catalog says 200 rows; the database will actually hold 800.
	sys.MustCreateRelation("S", 200, 128, Attr{Name: "a", DomainSize: 100})
	q, err := sys.BuildQuery(QuerySpec{
		Relations: []RelSpec{{Name: "S", Pred: &Pred{Attr: "a", Variable: "v"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateData(1); err != nil { // 200 rows, as declared
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ { // 600 undeclared extras: catalog now 4x stale
		if err := db.Insert("S", []int64{int64(i % 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}

	db.EnableObservatory()
	defer db.DisableObservatory()
	b := Bindings{Selectivities: map[string]float64{"v": 1.0}, MemoryPages: 64}
	res, err := db.Exec(context.Background(), p, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Calibration) == 0 {
		t.Fatal("execution under the observatory produced no calibration verdicts")
	}
	if res.PlanDigest == "" {
		t.Error("execution produced no plan digest")
	}

	reps := db.Calibration()
	if len(reps) == 0 {
		t.Fatal("observatory holds no calibration reports")
	}
	var hit *CalibrationReport
	for i := range reps {
		if reps[i].Kind == "cardinality" && reps[i].Rel == "S" {
			hit = &reps[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no cardinality report names the stale relation S: %+v", reps)
	}
	if hit.Violations < 1 {
		t.Errorf("stale relation S not flagged as an interval violation: %+v", *hit)
	}
	if hit.MaxQError < 4 {
		t.Errorf("q-error on stale relation S = %g, want >= 4 (catalog is 4x stale)", hit.MaxQError)
	}
	// The worst offender sorts first, and the snapshot's gauge tracks it.
	if reps[0].MaxQError < hit.MaxQError {
		t.Errorf("reports not sorted worst-first: %+v", reps)
	}
	snap := db.MetricsSnapshot()
	if snap.Violations < 1 || snap.WorstQError < 4 {
		t.Errorf("snapshot violations=%d worst_q_error=%g", snap.Violations, snap.WorstQError)
	}

	// Analyze is the remedy: it refreshes the catalog cardinality from the
	// stored rows, so a re-optimized plan predicts over the truth and the
	// violation on S disappears.
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	p2, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	db.EnableObservatory() // fresh registry: drop the stale-era verdicts
	res2, err := db.Exec(context.Background(), p2, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res2.Calibration {
		if v.Kind == "cardinality" && v.Rel == "S" && v.Violation {
			t.Errorf("violation on S survived re-analysis: %+v", v)
		}
	}
}

// TestObservatoryCountsQueries checks the registry's per-query tallies
// through the public Execute paths, and that disabling tears them down.
func TestObservatoryCountsQueries(t *testing.T) {
	e := newObsEnv(t)
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()

	const n = 3
	for i := 0; i < n; i++ {
		if _, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.db.MetricsSnapshot()
	if snap == nil {
		t.Fatal("enabled observatory returned nil snapshot")
	}
	if snap.Queries != n || snap.Executions != n || snap.Errors != 0 {
		t.Fatalf("queries=%d executions=%d errors=%d, want %d/%d/0",
			snap.Queries, snap.Executions, snap.Errors, n, n)
	}
	if snap.LatencyNanos.Count != n || snap.LatencyNanos.Max <= 0 {
		t.Fatalf("latency histogram %+v", snap.LatencyNanos)
	}
	if len(snap.Operators) == 0 || len(snap.Relations) == 0 {
		t.Fatalf("operator/relation aggregates empty: ops=%v rels=%v",
			snap.Operators, snap.Relations)
	}
	if got := e.db.RecentQueries(0); len(got) != n {
		t.Fatalf("query log holds %d records, want %d", len(got), n)
	}

	e.db.DisableObservatory()
	if e.db.MetricsSnapshot() != nil || e.db.Calibration() != nil || e.db.RecentQueries(0) != nil {
		t.Fatal("disabled observatory still serves data")
	}
	// Executions with the observatory off must not panic or record.
	if _, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestObservatoryGovernedRunRecord checks the satellite: run records from
// governed executions carry the admission stats and the resilience
// account, both in the query log and via RunRecordFor.
func TestObservatoryGovernedRunRecord(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{TotalPages: 256, MaxConcurrent: 2})
	defer e.db.ClearGovernor()
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()

	res, err := e.db.Exec(context.Background(), e.mod, e.binds, ExecOptions{Governed: true, Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.RunRecordFor("governed", "", e.params)
	if rec.Admission == nil {
		t.Fatal("run record of a governed execution carries no admission stats")
	}
	if rec.Admission.GrantedPages <= 0 {
		t.Errorf("admission stats not populated: %+v", rec.Admission)
	}
	if rec.PlanDigest == "" {
		t.Error("run record carries no plan digest")
	}
	if len(rec.Calibration) == 0 {
		t.Error("run record of an observed execution carries no calibration verdicts")
	}
	if _, ok := rec.Metrics["q-error-max"]; !ok {
		t.Error("calibrated run record missing q-error-max metric")
	}

	logged := e.db.RecentQueries(1)
	if len(logged) != 1 {
		t.Fatalf("query log holds %d records, want 1", len(logged))
	}
	if logged[0].Admission == nil || logged[0].WallNanos <= 0 || logged[0].UnixNanos <= 0 {
		t.Errorf("logged record incomplete: %+v", logged[0])
	}
	// A record with verdicts must round-trip as JSON for the /queries feed.
	if _, err := json.Marshal(logged[0]); err != nil {
		t.Fatalf("logged record does not marshal: %v", err)
	}
}

// TestObservatoryHTTPEndpoints drives the database-level Handler end to
// end: /metrics, /calibration, and /queries over a live workload, then
// 503 once disabled.
func TestObservatoryHTTPEndpoints(t *testing.T) {
	e := newObsEnv(t)
	e.db.EnableObservatory()
	srv := httptest.NewServer(e.db.Handler())
	defer srv.Close()

	for i := 0; i < 2; i++ {
		if _, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d: %s", code, body)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if snap.Queries != 2 {
		t.Errorf("/metrics queries = %d, want 2", snap.Queries)
	}

	code, body = get("/calibration")
	if code != 200 {
		t.Fatalf("/calibration status %d", code)
	}
	var reps []CalibrationReport
	if err := json.Unmarshal(body, &reps); err != nil {
		t.Fatalf("/calibration is not JSON: %v\n%s", err, body)
	}

	code, body = get("/queries?n=1")
	if code != 200 {
		t.Fatalf("/queries status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1 {
		t.Fatalf("/queries?n=1 returned %d lines", len(lines))
	}
	var rec RunRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("/queries line is not JSON: %v\n%s", err, lines[0])
	}

	e.db.DisableObservatory()
	if code, _ := get("/metrics"); code != 503 {
		t.Errorf("/metrics after disable: status %d, want 503", code)
	}
}

// TestObservatoryShedsCountSeparately squeezes admission until queries are
// rejected and checks sheds are tallied apart from query errors.
func TestObservatoryShedsCountSeparately(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{
		TotalPages:    64,
		MaxConcurrent: 1,
		MaxQueued:     1,
		QueueTimeout:  time.Nanosecond,
	})
	defer e.db.ClearGovernor()
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()

	// Slow every root iterator down so executions overlap; otherwise the
	// single slot frees faster than the burst arrives and nothing queues.
	e.db.wrap = func(it exec.Iterator, n *physical.Node) exec.Iterator {
		return slowOpen{Iterator: it}
	}
	defer func() { e.db.wrap = nil }()

	// A burst of 10 simultaneous arrivals against one slot and a one-deep
	// queue must overflow: at least 8 are shed with ErrAdmission.
	const burst = 10
	var wg sync.WaitGroup
	var sheds atomic.Int64
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.db.Exec(context.Background(), e.mod, e.binds, ExecOptions{Governed: true, Resilient: true})
			if err != nil && errors.Is(err, ErrAdmission) {
				sheds.Add(1)
			}
		}()
	}
	wg.Wait()
	snap := e.db.MetricsSnapshot()
	if sheds.Load() == 0 {
		t.Fatal("burst of 10 arrivals against a 2-deep governor shed nothing")
	}
	if snap.Sheds == 0 {
		t.Error("shed queries not counted in the registry")
	}
	if snap.Errors != 0 {
		t.Errorf("sheds leaked into the error count: %d", snap.Errors)
	}
}

// slowOpen pads Open with a pause so governed executions overlap and the
// admission queue actually fills during burst tests.
type slowOpen struct{ exec.Iterator }

func (s slowOpen) Open() error {
	time.Sleep(5 * time.Millisecond)
	return s.Iterator.Open()
}

// TestFailedQueryKeepsItsAccount pins that a failed query loses nothing it
// noted on the way: a tenant-tagged Resilient prepared query whose every
// attempt fails still charges its retries and backoff to the registry, and
// its /queries record carries its tenant, plan-cache verdict and recovery
// account.
func TestFailedQueryKeepsItsAccount(t *testing.T) {
	e := newObsEnv(t)
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()
	p, err := e.db.Prepare(e.q)
	if err != nil {
		t.Fatal(err)
	}
	e.db.InjectFaults(FaultConfig{Seed: 1, PermanentRate: 1})
	defer e.db.faults.Store(nil)

	const attempts = 3
	_, err = p.Exec(context.Background(), e.binds, ExecOptions{
		Resilient: true,
		Tenant:    "acme",
		Policy:    RetryPolicy{MaxAttempts: attempts, Backoff: time.Microsecond},
	})
	if err == nil {
		t.Fatal("every page read fails permanently, yet the query succeeded")
	}
	snap := e.db.MetricsSnapshot()
	if snap.Queries != 1 || snap.Errors != 1 || snap.Executions != attempts {
		t.Errorf("queries=%d errors=%d executions=%d, want 1/1/%d", snap.Queries, snap.Errors, snap.Executions, attempts)
	}
	if snap.Retries != attempts-1 {
		t.Errorf("retries = %d, want %d", snap.Retries, attempts-1)
	}
	if snap.BackoffNanos.Count != 1 || snap.BackoffNanos.Sum <= 0 {
		t.Errorf("backoff histogram %+v, want one positive sample", snap.BackoffNanos)
	}
	if tn := snap.Tenants["acme"]; tn.Queries != 1 || tn.Errors != 1 {
		t.Errorf("tenant account %+v, want one failed query", tn)
	}
	recs := e.db.RecentQueries(0)
	if len(recs) != 1 {
		t.Fatalf("query log holds %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Error == "" || rec.Tenant != "acme" || !rec.CacheHit {
		t.Errorf("failure record error=%q tenant=%q cache_hit=%v", rec.Error, rec.Tenant, rec.CacheHit)
	}
	if rec.Retries != attempts-1 || rec.Backoffs != attempts-1 || rec.BackoffTotalNanos != snap.BackoffNanos.Sum {
		t.Errorf("failure record retries=%d backoffs=%d backoff=%d", rec.Retries, rec.Backoffs, rec.BackoffTotalNanos)
	}
}

// TestObservatoryKeepsCallerObservability pins that the observatory only
// implies per-operator collection: disabling it does not switch off the
// collection the caller asked for.
func TestObservatoryKeepsCallerObservability(t *testing.T) {
	e := newObsEnv(t)
	collects := func() bool {
		t.Helper()
		res, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Operators != nil
	}
	e.db.EnableObservatory()
	if !collects() {
		t.Error("the enabled observatory does not imply per-operator collection")
	}
	e.db.DisableObservatory()
	if collects() {
		t.Error("collection still on after the observatory alone was disabled")
	}

	e.db.EnableObservability()
	e.db.EnableObservatory()
	e.db.DisableObservatory()
	if !collects() {
		t.Error("no stats tree after EnableObservability → EnableObservatory → DisableObservatory")
	}
}

// TestMetricsSnapshotConsistent takes snapshots while four goroutines run
// governed tenant queries (every fifth one canceled) and checks each
// snapshot is internally consistent: a query is in all of its figures or
// in none of them.
func TestMetricsSnapshotConsistent(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{TotalPages: 512, MaxConcurrent: 4, MaxQueued: 64, QueueTimeout: 10 * time.Second})
	defer e.db.ClearGovernor()
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	const workers, per = 4, 40
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", w)
			for i := range per {
				ctx := context.Background()
				if i%5 == 4 {
					ctx = canceled
				}
				_, _ = e.db.Exec(ctx, e.mod, e.binds, ExecOptions{Governed: true, Tenant: tenant})
			}
		}()
	}
	check := func(s *MetricsSnapshot) {
		t.Helper()
		if s.Queries != s.LatencyNanos.Count {
			t.Fatalf("queries=%d latency count=%d", s.Queries, s.LatencyNanos.Count)
		}
		if s.Queries-s.Errors != s.PagesRead.Count {
			t.Fatalf("queries=%d errors=%d pages_read count=%d", s.Queries, s.Errors, s.PagesRead.Count)
		}
		var tenantQueries int64
		for _, a := range s.Tenants {
			tenantQueries += a.Queries
		}
		if tenantQueries > s.Queries {
			t.Fatalf("tenant queries %d > queries %d", tenantQueries, s.Queries)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		check(e.db.MetricsSnapshot())
	}
	final := e.db.MetricsSnapshot()
	check(final)
	if final.Queries != workers*per || final.Errors != workers*per/5 {
		t.Errorf("queries=%d errors=%d, want %d/%d", final.Queries, final.Errors, workers*per, workers*per/5)
	}
}
