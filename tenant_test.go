package dynplan

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynplan/internal/harness"
)

// TestTenantFairnessUnderFlood is the fairness acceptance: tenant A
// floods the service from many goroutines while tenant B issues a
// steady sequential trickle. With per-tenant admission slots, A's
// excess queues against its own gate — never the shared queue — so B's
// queue waits stay bounded and none of B's queries are shed.
func TestTenantFairnessUnderFlood(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{
		TotalPages:    256,
		MinGrantPages: 8,
		MaxConcurrent: 4,
		MaxQueued:     16,
		TenantSlots:   2,
		QueueTimeout:  10 * time.Second,
	})
	p, err := e.db.Prepare(e.q)
	if err != nil {
		t.Fatal(err)
	}
	opts := func(tenant string) ExecOptions {
		return ExecOptions{Governed: true, Tenant: tenant}
	}

	const (
		floodWorkers = 8
		floodPerG    = 20
		trickle      = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < floodWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < floodPerG; i++ {
				if _, err := p.Exec(context.Background(), e.binds, opts("flood")); err != nil {
					t.Errorf("tenant flood: %v", err)
					return
				}
			}
		}()
	}

	waits := make([]int64, 0, trickle)
	for i := 0; i < trickle; i++ {
		res, err := p.Exec(context.Background(), e.binds, opts("steady"))
		if err != nil {
			t.Fatalf("tenant steady query %d: %v", i, err)
		}
		if res.Tenant != "steady" {
			t.Fatalf("result tenant = %q, want steady", res.Tenant)
		}
		waits = append(waits, res.Admission.QueueWaitNanos)
	}
	wg.Wait()

	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	p95 := waits[len(waits)*95/100]
	// Starvation behind an unbounded flood would be seconds; with the
	// tenant gate holding A to 2 of the 4 global slots, B contends with
	// at most two flood queries per arrival.
	if limit := int64(250 * time.Millisecond); p95 > limit {
		t.Errorf("steady tenant p95 queue wait = %v, want < %v",
			time.Duration(p95), time.Duration(limit))
	}

	gs := e.db.GovernorStats()
	steady, flood := gs.Tenants["steady"], gs.Tenants["flood"]
	if steady.ShedGate != 0 || steady.ShedTimeout != 0 {
		t.Errorf("steady tenant was shed: %+v", steady)
	}
	if steady.Admitted != trickle || steady.Completed != trickle {
		t.Errorf("steady tenant admissions = %+v, want %d admitted and completed", steady, trickle)
	}
	if flood.Admitted != flood.Completed || flood.Admitted != floodWorkers*floodPerG {
		t.Errorf("flood tenant admissions = %+v, want %d", flood, floodWorkers*floodPerG)
	}
	if flood.InFlight != 0 || flood.OutstandingPages != 0 ||
		steady.InFlight != 0 || steady.OutstandingPages != 0 {
		t.Errorf("tenant occupancy after drain: flood %+v, steady %+v", flood, steady)
	}
	if out := e.db.OutstandingGrantPages(); out != 0 {
		t.Errorf("outstanding grant pages = %v, want 0", out)
	}
}

// TestPreparedMultiTenantSoak is the PR's acceptance soak: 1000
// concurrent prepared executions across 4 tenants through the shared
// plan cache, with an Analyze pass invalidating every cached plan
// mid-flight. Answers stay digest-identical to uncached compilation,
// the governor's and broker's books balance, no goroutines or grants
// leak, and the cache hit rate and per-tenant admission stats surface
// in the metrics snapshot.
func TestPreparedMultiTenantSoak(t *testing.T) {
	e := newObsEnv(t)

	// Uncached baselines per binding set, before the observatory starts
	// counting.
	sels := []float64{0.05, 0.1, 0.3, 0.6}
	baseline := make([]string, len(sels))
	bindings := make([]Bindings, len(sels))
	for i, sel := range sels {
		b := Bindings{Selectivities: map[string]float64{}, MemoryPages: 32}
		for v := 1; v <= 3; v++ {
			b.Selectivities[fmt.Sprintf("v%d", v)] = sel
		}
		bindings[i] = b
		baseline[i] = normalizeResult(coldExec(t, e.sys, e.db, e.q, b))
	}

	e.db.EnableObservatory()
	defer e.db.DisableObservatory()
	e.db.SetGovernor(GovernorConfig{
		TotalPages:    512,
		MinGrantPages: 8,
		MaxConcurrent: 8,
		MaxQueued:     64,
		TenantSlots:   2,
		TenantPages:   128,
		QueueTimeout:  30 * time.Second,
	})
	p, err := e.db.Prepare(e.q)
	if err != nil {
		t.Fatal(err)
	}

	const (
		tenants    = 4
		workersPer = 2
		iters      = 125 // 4 × 2 × 125 = 1000 executions
	)
	names := []string{"alpha", "beta", "gamma", "delta"}
	before := harness.StableGoroutines()

	var done atomic.Int64
	var analyzeOnce sync.Once
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		for w := 0; w < workersPer; w++ {
			wg.Add(1)
			go func(tenant string, w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					bi := (i + w) % len(bindings)
					res, err := p.Exec(context.Background(), bindings[bi],
						ExecOptions{Governed: true, Tenant: tenant})
					if err != nil {
						t.Errorf("tenant %s iter %d: %v", tenant, i, err)
						return
					}
					if res.Tenant != tenant {
						t.Errorf("result tenant = %q, want %q", res.Tenant, tenant)
						return
					}
					if got := normalizeResult(res); got != baseline[bi] {
						t.Errorf("tenant %s iter %d (sel %g): cached answers diverged from cold compile",
							tenant, i, sels[bi])
						return
					}
					// Mid-soak statistics refresh: every cached plan
					// compiled so far is invalidated; the soak must sail
					// through the recompile without wrong answers.
					if done.Add(1) == tenants*workersPer*iters/2 {
						analyzeOnce.Do(func() {
							if err := e.db.Analyze(); err != nil {
								t.Errorf("mid-soak Analyze: %v", err)
							}
						})
					}
				}
			}(names[ti], w)
		}
	}
	wg.Wait()

	total := int64(tenants * workersPer * iters)
	if got := done.Load(); got != total {
		t.Fatalf("soak ran %d executions, want %d", got, total)
	}
	if v := e.db.catalogVersion.Load(); v != 2 {
		t.Errorf("catalog version after mid-soak Analyze = %d, want 2", v)
	}

	// Cache effectiveness: one compile at Prepare, one after the
	// invalidation (plus at most a handful of stale-key stragglers);
	// everything else hits. The acceptance bar is a > 0.9 hit rate.
	cs := e.db.PlanCacheStats()
	if cs.Misses < 2 || cs.Misses > 10 {
		t.Errorf("plan cache misses = %d, want 2 (Prepare + post-Analyze recompile) ± stragglers", cs.Misses)
	}
	if rate := float64(cs.Hits) / float64(cs.Hits+cs.Misses); rate <= 0.9 {
		t.Errorf("plan cache hit rate = %.3f (%+v), want > 0.9", rate, cs)
	}

	// Governor books balance per tenant and globally.
	gs := e.db.GovernorStats()
	if len(gs.Tenants) != tenants {
		t.Fatalf("governor tracked %d tenants, want %d: %+v", len(gs.Tenants), tenants, gs.Tenants)
	}
	for _, name := range names {
		ts := gs.Tenants[name]
		if ts.Admitted != int64(workersPer*iters) || ts.Completed != ts.Admitted {
			t.Errorf("tenant %s admissions = %+v, want %d admitted and completed",
				name, ts, workersPer*iters)
		}
		if ts.ShedGate != 0 || ts.ShedTimeout != 0 || ts.InFlight != 0 || ts.OutstandingPages != 0 {
			t.Errorf("tenant %s not drained clean: %+v", name, ts)
		}
	}
	if out := e.db.OutstandingGrantPages(); out != 0 {
		t.Errorf("outstanding grant pages = %v, want 0", out)
	}
	if after := harness.StableGoroutines(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d across the soak", before, after)
	}

	// The observatory surfaces the soak: per-tenant admission, cache
	// counters, and the activation-latency histogram.
	snap := e.db.MetricsSnapshot()
	if snap == nil {
		t.Fatal("no metrics snapshot")
	}
	if len(snap.Tenants) != tenants {
		t.Fatalf("metrics tenants = %d, want %d", len(snap.Tenants), tenants)
	}
	var tenantQueries int64
	for name, agg := range snap.Tenants {
		if agg.Queries != int64(workersPer*iters) {
			t.Errorf("metrics tenant %s queries = %d, want %d", name, agg.Queries, workersPer*iters)
		}
		if agg.QueueWait.Count != agg.Queries {
			t.Errorf("metrics tenant %s queue-wait count = %d, want %d",
				name, agg.QueueWait.Count, agg.Queries)
		}
		tenantQueries += agg.Queries
	}
	if tenantQueries != total {
		t.Errorf("metrics tenant queries sum = %d, want %d", tenantQueries, total)
	}
	if snap.PlanCacheHits != int64(cs.Hits) || snap.PlanCacheMisses != int64(cs.Misses) {
		t.Errorf("metrics cache counters (%d/%d) disagree with cache stats %+v",
			snap.PlanCacheHits, snap.PlanCacheMisses, cs)
	}
	if snap.Activation.Count < total {
		t.Errorf("activation histogram count = %d, want >= %d", snap.Activation.Count, total)
	}

	// Cache-hit flags ride the query log: the newest records are hits.
	recs := e.db.RecentQueries(10)
	if len(recs) == 0 {
		t.Fatal("no run records after 1000 executions")
	}
	hits := 0
	for _, r := range recs {
		if r.CacheHit {
			hits++
		}
		if r.Tenant == "" {
			t.Errorf("run record missing tenant: %+v", r)
		}
	}
	if hits == 0 {
		t.Error("no recent run record carries the cache-hit flag")
	}
}
