package dynplan

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dynplan/internal/workload"
)

// paperDatabase opens the §6 catalog (internal/workload, seed 11: ten
// relations R1…R10) through the public API with its rows (seed 17) and
// indexes loaded.
func paperDatabase(t testing.TB) (*System, *Database) {
	t.Helper()
	sys := New()
	for _, rel := range workload.New(11).Catalog.Relations() {
		attrs := make([]Attr, len(rel.Attrs))
		for j, a := range rel.Attrs {
			attrs[j] = Attr{Name: a.Name, DomainSize: a.DomainSize, BTree: a.BTree}
		}
		sys.MustCreateRelation(rel.Name, rel.Cardinality, rel.RecordBytes, attrs...)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateData(17); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	return sys, db
}

// chainText is the chain statement over R<lo>…R<lo+n-1>: a selection
// "a <= ?v<i>" per relation and edges jh = next.jl, optionally ordered by
// and projected on the first relation's a.
func chainText(lo, n int, orderBy, project bool) string {
	var from, where []string
	for i := lo; i < lo+n; i++ {
		from = append(from, fmt.Sprintf("R%d", i))
		where = append(where, fmt.Sprintf("R%d.a <= ?v%d", i, i))
	}
	for i := lo; i+1 < lo+n; i++ {
		where = append(where, fmt.Sprintf("R%d.jh = R%d.jl", i, i+1))
	}
	cols := "*"
	if project {
		cols = fmt.Sprintf("R%d.a", lo)
	}
	sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s", cols, strings.Join(from, ", "), strings.Join(where, " AND "))
	if orderBy {
		sql += fmt.Sprintf(" ORDER BY R%d.a", lo)
	}
	return sql
}

// chainBindings binds v<lo>…v<lo+n-1> to sel under 64 pages of memory.
func chainBindings(lo, n int, sel float64) Bindings {
	b := Bindings{Selectivities: map[string]float64{}, MemoryPages: 64}
	for i := lo; i < lo+n; i++ {
		b.Selectivities[fmt.Sprintf("v%d", i)] = sel
	}
	return b
}

// TestQueryDigestCoversQuery: the plan-cache key covers everything the
// plan depends on. A key hashed from the query's display text left out
// the join predicates and rounded literal selectivities to three digits,
// so a statement could run another statement's cached plan: R.a = S.b
// returned R.k = S.k's rows, and R.a <= 50049 returned R.a <= 50000's.
func TestQueryDigestCoversQuery(t *testing.T) {
	sys := New()
	sys.MustCreateRelation("R", 20000, 64,
		Attr{Name: "k", DomainSize: 1000, BTree: true},
		Attr{Name: "a", DomainSize: 100000, BTree: true},
		Attr{Name: "b", DomainSize: 1000},
	)
	sys.MustCreateRelation("S", 100, 64,
		Attr{Name: "k", DomainSize: 1000, BTree: true},
		Attr{Name: "b", DomainSize: 1000, BTree: true},
	)
	sys.MustCreateRelation("T", 10, 64, Attr{Name: "k", DomainSize: 1000})
	parse := func(sql string) *Query {
		t.Helper()
		q, err := sys.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, c := range []struct{ name, a, b string }{
		{"join attribute", "SELECT * FROM R, S WHERE R.k = S.k", "SELECT * FROM R, S WHERE R.k = S.b"},
		{"join edge", "SELECT * FROM R, S, T WHERE R.k = S.k AND S.k = T.k", "SELECT * FROM R, S, T WHERE R.k = S.k AND R.k = T.k"},
		{"literal", "SELECT * FROM R WHERE R.a <= 50000", "SELECT * FROM R WHERE R.a <= 50049"},
	} {
		if queryDigest(parse(c.a)) == queryDigest(parse(c.b)) {
			t.Errorf("%s: %q and %q share a digest", c.name, c.a, c.b)
		}
	}
	const text = "SELECT R.a FROM R, S WHERE R.a <= ?x AND R.k = S.k ORDER BY R.a"
	if queryDigest(parse(text)) != queryDigest(parse(text)) {
		t.Errorf("%q digests differently when parsed twice", text)
	}

	// The probes: each pair runs through one database's plan cache, the
	// second statement after the first, and must return what optimizing
	// it for its bindings returns.
	db := sys.OpenDatabase()
	if err := db.GenerateData(3); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b := Bindings{MemoryPages: 64}
	for _, pair := range [][2]string{
		{"SELECT * FROM R, S WHERE R.k = S.k", "SELECT * FROM R, S WHERE R.a = S.b"},
		{"SELECT * FROM R WHERE R.a <= 50000", "SELECT * FROM R WHERE R.a <= 50049"},
	} {
		var want [2][]string
		for i, sql := range pair {
			q := parse(sql)
			oracle, err := sys.OptimizeAt(q, b)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Exec(ctx, oracle, b, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = canonical(res)
		}
		if len(want[0]) == len(want[1]) {
			t.Fatalf("%q and %q return %d rows each; the probe needs answers that differ", pair[0], pair[1], len(want[0]))
		}
		for i, sql := range pair {
			p, err := db.Prepare(parse(sql))
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Exec(ctx, b, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := canonical(res); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("prepared %q returned %d rows, OptimizeAt's plan %d", sql, len(got), len(want[i]))
			}
		}
	}
}

// TestEdgeSpellingsShareAPlan: an edge's orientation is immaterial to
// the plan, so R.k = S.k and S.k = R.k share one plan-cache entry, and a
// statement's edges spelled the other way round run the cached plan.
func TestEdgeSpellingsShareAPlan(t *testing.T) {
	sys, db := paperDatabase(t)
	b := chainBindings(1, 3, 0.2)
	var digests []string
	for _, sql := range []string{
		"SELECT * FROM R1, R2, R3 WHERE R1.a <= ?v1 AND R2.a <= ?v2 AND R3.a <= ?v3 AND R1.jh = R2.jl AND R2.jh = R3.jl",
		"SELECT * FROM R1, R2, R3 WHERE R1.a <= ?v1 AND R2.a <= ?v2 AND R3.a <= ?v3 AND R2.jl = R1.jh AND R3.jl = R2.jh",
	} {
		q, err := sys.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Exec(context.Background(), b, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, res.PlanDigest)
	}
	if got, want := db.PlanCacheStats(), (PlanCacheStats{Hits: 3, Misses: 1}); got != want {
		t.Errorf("plan cache %+v, want %+v: the two spellings compiled apart", got, want)
	}
	if digests[0] != digests[1] {
		t.Errorf("the spellings ran different plans: %s and %s", digests[0], digests[1])
	}
}

// TestConcurrentColdCompiles: searches running at once each borrow their
// own pooled arena and return plans of their own. Goroutines prepare
// distinct chain statements two at a time against a plan cache too small
// to keep them all, so most preparations are cold compiles, and then run
// both: each run's plan digest must equal the one a serial pass produced.
func TestConcurrentColdCompiles(t *testing.T) {
	sys, db := paperDatabase(t)
	ctx := context.Background()
	var texts []string
	for n := 2; n <= 5; n++ {
		for lo := 1; lo <= 3; lo++ {
			texts = append(texts, chainText(lo, n, false, false), chainText(lo, n, true, false))
		}
	}
	prepare := func(i int) (*PreparedQuery, error) {
		q, err := sys.Parse(texts[i])
		if err != nil {
			return nil, err
		}
		return db.Prepare(q)
	}
	run := func(p *PreparedQuery, i int) (string, error) {
		lo, n := 1+i/2%3, 2+i/6
		res, err := p.Exec(ctx, chainBindings(lo, n, 0.05), ExecOptions{})
		if err != nil {
			return "", err
		}
		return res.PlanDigest, nil
	}
	want := make([]string, len(texts))
	for i := range texts {
		p, err := prepare(i)
		if err == nil {
			want[i], err = run(p, i)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	db.planCache = newPlanCache(8)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range len(texts) {
				pair := [2]int{(k*5 + g*7) % len(texts), (k*5 + g*7 + 1) % len(texts)}
				var prepared [2]*PreparedQuery
				for j, i := range pair {
					var err error
					if prepared[j], err = prepare(i); err != nil {
						t.Error(err)
						return
					}
				}
				for j, i := range pair {
					got, err := run(prepared[j], i)
					if err != nil {
						t.Error(err)
						return
					}
					if got != want[i] {
						t.Errorf("%q ran plan %s, serially %s", texts[i], got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := db.PlanCacheStats(); st.Misses < uint64(len(texts)) {
		t.Errorf("plan cache %+v: the statements were not compiled cold", st)
	}
}

// TestColdPrepareAllocations pins what a cold statement allocates: parse,
// a plan-cache miss (key, search, lowering) and the first execution of
// the fresh module, on §6 chains of 2, 4 and 7 relations. The bounds are
// a quarter above the readings (106, 117 and 142 allocations); before
// the search built its candidates in a pooled arena they were 135, 231
// and 554. The reading subtracts what installing the empty cache that
// makes each run a miss allocates.
func TestColdPrepareAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sys, db := paperDatabase(t)
	ctx := context.Background()
	for _, c := range []struct{ relations, bound int }{{2, 132}, {4, 146}, {7, 177}} {
		text, b := chainText(1, c.relations, false, false), chainBindings(1, c.relations, 0.05)
		fresh := func() { db.planCache = newPlanCache(64) }
		cold := func() {
			fresh()
			q, err := sys.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			p, err := db.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Exec(ctx, b, ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		cold() // the first run sizes the database's shared pools
		got := testing.AllocsPerRun(10, cold) - testing.AllocsPerRun(10, fresh)
		t.Logf("%d relations: %.0f allocs (bound %d)", c.relations, got, c.bound)
		if got > float64(c.bound) {
			t.Errorf("%d relations: a cold statement allocates %.0f times, want <= %d", c.relations, got, c.bound)
		}
	}
}

// TestPlanCacheRetainedBytes pins the heap a full plan cache keeps alive:
// 64 chain statements over the §6 catalog (2–7 relations, with and
// without ORDER BY) prepared on a fresh database, measured as the live
// heap's growth across the preparations, the least of three runs (1 216
// KiB). The bound is 2 % above the reading. Before a plan was compacted
// into one exact slab and a module dropped its pointer index, the reading
// was 1 391 KiB under a bound of 1 407.
func TestPlanCacheRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const bound = 1240 << 10
	var texts []string
	for n := 2; n <= 7 && len(texts) < 64; n++ {
		for lo := 1; lo+n-1 <= 10 && len(texts) < 64; lo++ {
			texts = append(texts, chainText(lo, n, false, false), chainText(lo, n, true, false))
		}
	}
	best := uint64(1 << 62)
	for range 3 {
		sys, db := paperDatabase(t)
		// Two collections empty the sync.Pools, whose victims would
		// otherwise be freed inside the measured window.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		prepared := make([]*PreparedQuery, 0, len(texts))
		for _, text := range texts[:64] {
			q, err := sys.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			p, err := db.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			prepared = append(prepared, p)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(prepared)
		runtime.KeepAlive(db)
		best = min(best, after.HeapAlloc-before.HeapAlloc)
	}
	t.Logf("64 cached statements retain %d KiB (bound %d KiB)", best>>10, bound>>10)
	if best > bound {
		t.Errorf("64 cached statements retain %d KiB, want <= %d KiB", best>>10, bound>>10)
	}
}
