package dynplan

import (
	"context"
	"reflect"
	"testing"
)

// coldExec compiles the query from scratch — the path a client without a
// prepared statement pays — and executes it under the bindings.
func coldExec(t testing.TB, sys *System, db *Database, q *Query, b Bindings) *ExecResult {
	t.Helper()
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), mod, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPreparedMatchesColdCompile is the cache-correctness acceptance: at
// every binding set, a cache-hitting prepared execution returns rows and
// a plan digest identical to a cold compile of the same query.
func TestPreparedMatchesColdCompile(t *testing.T) {
	sys, q := resilChainSystem(t, 3)
	db := resilDatabase(t, sys)
	db.EnableObservatory() // PlanDigest identifies the resolved branch
	defer db.DisableObservatory()
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []float64{0.05, 0.2, 0.5, 0.9} {
		for _, mem := range []float64{24, 64, 96} {
			b := resilBindings(3, sel, mem)
			got, err := p.Exec(context.Background(), b, ExecOptions{})
			if err != nil {
				t.Fatalf("sel %g mem %g: %v", sel, mem, err)
			}
			if !got.PlanCacheHit {
				t.Errorf("sel %g mem %g: prepared execution missed the cache", sel, mem)
			}
			want := coldExec(t, sys, db, q, b)
			if got.PlanDigest != want.PlanDigest {
				t.Errorf("sel %g mem %g: prepared digest %s != cold digest %s",
					sel, mem, got.PlanDigest, want.PlanDigest)
			}
			if !reflect.DeepEqual(canonical(got), canonical(want)) {
				t.Errorf("sel %g mem %g: prepared rows differ from cold compile", sel, mem)
			}
		}
	}
	if s := db.PlanCacheStats(); s.Misses != 1 || s.Hits < 12 {
		t.Errorf("cache stats = %+v, want exactly one miss (the Prepare) and a hit per execution", s)
	}
}

// TestPlanCacheSizeOneEviction drives two digest-distinct statements
// through a capacity-1 cache: every alternating execution evicts the
// other's plan and recompiles, yet answers stay correct, and a repeat
// without interleaving hits.
func TestPlanCacheSizeOneEviction(t *testing.T) {
	sys, q1 := resilChainSystem(t, 3)
	db := resilDatabase(t, sys)
	db.planCache = newPlanCache(1)

	// A second, digest-distinct statement over the same tables.
	q2, err := sys.BuildQuery(QuerySpec{
		Relations: []RelSpec{{Name: "C1", Pred: &Pred{Attr: "a", Variable: "v1"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if queryDigest(q1) == queryDigest(q2) {
		t.Fatal("test queries share a digest")
	}
	p1, err := db.Prepare(q1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.Prepare(q2) // evicts q1's plan
	if err != nil {
		t.Fatal(err)
	}
	b := resilBindings(3, 0.3, 64)
	want1 := canonical(coldExec(t, sys, db, q1, b))
	want2 := canonical(coldExec(t, sys, db, q2, b))

	for round := 0; round < 3; round++ {
		r1, err := p1.Exec(context.Background(), b, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.PlanCacheHit {
			t.Errorf("round %d: q1 hit a capacity-1 cache q2 just displaced it from", round)
		}
		if !reflect.DeepEqual(canonical(r1), want1) {
			t.Errorf("round %d: q1 rows diverged under eviction pressure", round)
		}
		r2, err := p2.Exec(context.Background(), b, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r2.PlanCacheHit {
			t.Errorf("round %d: q2 hit a capacity-1 cache q1 just displaced it from", round)
		}
		if !reflect.DeepEqual(canonical(r2), want2) {
			t.Errorf("round %d: q2 rows diverged under eviction pressure", round)
		}
	}
	// Thrash accounted: the two Prepares plus six alternating executions
	// all missed; each insertion past the first evicted the other entry.
	if s := db.PlanCacheStats(); s.Hits != 0 || s.Misses != 8 || s.Evictions != 7 {
		t.Errorf("cache stats = %+v, want 0 hits, 8 misses, 7 evictions", s)
	}
	// Without the interleaved displacement the next execution hits.
	r, err := p1.Exec(context.Background(), resilBindings(3, 0.5, 64), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.PlanCacheHit {
		t.Error("first q1 execution after q2 displaced it should miss")
	}
	r, err = p1.Exec(context.Background(), resilBindings(3, 0.5, 64), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.PlanCacheHit {
		t.Error("repeat q1 execution with no interleaving should hit")
	}
}

// TestAnalyzeInvalidatesPreparedPlans is the invalidation acceptance: on
// a 4x-stale catalog, Analyze bumps the catalog version, the prepared
// statement's next execution recompiles under the corrected statistics —
// observable as a changed plan digest — and answers are unchanged.
func TestAnalyzeInvalidatesPreparedPlans(t *testing.T) {
	_, q, db := reoptStaleDB(t, 3, "C2", 4)
	db.EnableObservatory() // PlanDigest makes the replan observable
	defer db.DisableObservatory()
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b := resilBindings(3, 0.5, 64)
	before, err := p.Exec(context.Background(), b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !before.PlanCacheHit {
		t.Error("pre-Analyze execution should hit the Prepare-warmed cache")
	}

	v0 := db.catalogVersion.Load()
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if v1 := db.catalogVersion.Load(); v1 != v0+1 {
		t.Fatalf("CatalogVersion after Analyze = %d, want %d", v1, v0+1)
	}

	after, err := p.Exec(context.Background(), b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.PlanCacheHit {
		t.Error("post-Analyze execution must recompile, not serve the stale plan")
	}
	if after.PlanDigest == before.PlanDigest {
		t.Errorf("plan digest unchanged (%s) though the catalog corrected a 4x-stale cardinality",
			after.PlanDigest)
	}
	if !reflect.DeepEqual(canonical(after), canonical(before)) {
		t.Error("invalidation changed the answers, not just the plan")
	}
	// The corrected plan is cached in turn.
	again, err := p.Exec(context.Background(), b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.PlanCacheHit || again.PlanDigest != after.PlanDigest {
		t.Errorf("re-prepared plan not served from cache: hit=%v digest=%s want %s",
			again.PlanCacheHit, again.PlanDigest, after.PlanDigest)
	}
}

// TestQueryDigestSplitsOnClauses: order-by and projection change the
// compiled artifact, so they must split cache entries even when the
// from/where text is identical.
func TestQueryDigestSplitsOnClauses(t *testing.T) {
	sys := New()
	sys.MustCreateRelation("emp", 800, 512,
		Attr{Name: "salary", DomainSize: 200, BTree: true},
		Attr{Name: "dept", DomainSize: 40, BTree: true},
	)
	parse := func(sql string) *Query {
		q, err := sys.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	base := parse("SELECT * FROM emp WHERE emp.salary <= ?limit")
	same := parse("SELECT * FROM emp WHERE emp.salary <= ?limit")
	ordered := parse("SELECT * FROM emp WHERE emp.salary <= ?limit ORDER BY emp.dept")
	projected := parse("SELECT emp.dept FROM emp WHERE emp.salary <= ?limit")
	if queryDigest(base) != queryDigest(same) {
		t.Error("identical statements digest differently")
	}
	if queryDigest(base) == queryDigest(ordered) {
		t.Error("ORDER BY did not split the digest")
	}
	if queryDigest(base) == queryDigest(projected) {
		t.Error("projection did not split the digest")
	}
}

// TestPreparedSharesOneCompilation: distinct PreparedQuery handles for a
// digest-identical statement resolve to one cached module — the
// multi-tenant sharing the cache exists for.
func TestPreparedSharesOneCompilation(t *testing.T) {
	sys, q := resilChainSystem(t, 3)
	db := resilDatabase(t, sys)
	p1, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p1.digest != p2.digest {
		t.Fatalf("digests differ: %s vs %s", p1.digest, p2.digest)
	}
	b := resilBindings(3, 0.3, 64)
	for i, p := range []*PreparedQuery{p1, p2} {
		res, err := p.Exec(context.Background(), b, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.PlanCacheHit {
			t.Errorf("handle %d missed the cache", i+1)
		}
	}
	if s := db.PlanCacheStats(); s.Misses != 1 {
		t.Errorf("two handles compiled %d times, want 1 (stats %+v)", s.Misses, s)
	}
}
