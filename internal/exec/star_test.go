package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/plan"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/storage"
	"dynplan/internal/workload"
)

// starReference evaluates an n-relation star query by brute force.
func starReference(w *workload.Workload, db *DB, n int, b *bindings.Bindings) string {
	filtered := make([][]storage.Row, n)
	schemas := make([]Schema, n)
	for i := 1; i <= n; i++ {
		rel := w.Catalog.MustRelation(fmt.Sprintf("R%d", i))
		table, err := db.Store.Table(rel.Name)
		if err != nil {
			panic(err)
		}
		sel := b.Sel[fmt.Sprintf("v%d", i)]
		limit := sel * float64(rel.MustAttribute(workload.SelAttr).DomainSize)
		aIdx := rel.AttrIndex(workload.SelAttr)
		for _, a := range rel.Attrs {
			schemas[i-1] = append(schemas[i-1], a.QualifiedName())
		}
		for pos := range table.NumRows() {
			if r := table.Row(pos); float64(r[aIdx]) < limit {
				filtered[i-1] = append(filtered[i-1], r)
			}
		}
	}
	// Join hub (index 0) with each satellite in turn.
	cur := filtered[0]
	schema := schemas[0]
	hub := w.Catalog.MustRelation("R1")
	for i := 1; i < n; i++ {
		hubAttr := workload.JoinLo
		if i%2 == 0 {
			hubAttr = workload.JoinHi
		}
		lcol, err := schema.Index(hub.Name + "." + hubAttr)
		if err != nil {
			panic(err)
		}
		rcol := w.Catalog.MustRelation(fmt.Sprintf("R%d", i+1)).AttrIndex(workload.JoinLo)
		var joined []storage.Row
		for _, l := range cur {
			for _, r := range filtered[i] {
				if l[lcol] == r[rcol] {
					joined = append(joined, concat(l, r))
				}
			}
		}
		cur = joined
		schema = append(schema, schemas[i]...)
	}
	return normalize(cur, schema)
}

// TestStarQueriesEndToEnd optimizes star queries (statically and
// dynamically), executes them, and compares with brute force — partition
// shapes the chain workload never produces.
func TestStarQueriesEndToEnd(t *testing.T) {
	w := workload.New(31)
	db := testDB(t, w)
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 4} {
		q := w.StarQuery(n)
		static, err := runtimeopt.OptimizeStatic(q, search.Config{})
		if err != nil {
			t.Fatalf("star %d static: %v", n, err)
		}
		dyn, err := runtimeopt.OptimizeDynamic(q, search.Config{}, true)
		if err != nil {
			t.Fatalf("star %d dynamic: %v", n, err)
		}
		mod, err := plan.NewModule(dyn.Plan, dyn.Stats.Nodes(), dyn.Stats.Edges())
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			b := bindings.NewBindings(16 + rng.Float64()*96)
			for i := 1; i <= n; i++ {
				b.BindSelectivity(fmt.Sprintf("v%d", i), rng.Float64())
			}
			want := starReference(w, db, n, b)

			rowsS, schemaS, _, err := db.Run(static.Plan, b)
			if err != nil {
				t.Fatalf("star %d static exec: %v", n, err)
			}
			if got := normalize(rowsS, schemaS); got != want {
				t.Fatalf("star %d: static result differs from reference", n)
			}

			rep, err := mod.Activate(b, plan.StartupOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rowsD, schemaD, _, err := db.Run(rep.Chosen, b)
			if err != nil {
				t.Fatalf("star %d dynamic exec: %v\nplan:\n%s", n, err, rep.Chosen.Format())
			}
			if got := normalize(rowsD, schemaD); got != want {
				t.Fatalf("star %d: dynamic result differs from reference\nplan:\n%s", n, rep.Chosen.Format())
			}
		}
	}
}
