package exec

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"weak"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/qerr"
	"dynplan/internal/storage"
	"dynplan/internal/workload"
)

// storedDigest hashes every row of the named stored tables and of every
// temporary, in storage order.
func storedDigest(t *testing.T, db *DB, rels ...string) string {
	t.Helper()
	var tables []*storage.Table
	for _, rel := range rels {
		tbl, err := db.Store.Table(rel)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	for _, tmp := range db.Temps {
		tables = append(tables, tmp.Table)
	}
	var rows []storage.Row
	for _, tbl := range tables {
		for pos := range tbl.NumRows() {
			rows = append(rows, tbl.Row(pos))
		}
	}
	return digestRows(nil, rows)
}

// ownedRoot is one kind of root the ownership tests run: hinted says
// every run gets predictions.
type ownedRoot struct {
	name   string
	root   *physical.Node
	hinted bool
}

// ownedRoots materializes the temporary t1 into db and returns every kind
// of root: scans, a Sort or a Filter over one, a Temp-Scan, joins and a
// Sort over one — roots whose tuples point into one stored table, into a
// temporary or into several tables. Predictions size the buffers a run
// drains into, so a Sort over a scan and one over a join also run with
// every operator predicted at 600 rows.
func ownedRoots(w *workload.Workload, db *DB, b *bindings.Bindings) ([]ownedRoot, error) {
	card := func(rel string) int { return w.Catalog.MustRelation(rel).Cardinality }
	scan := func(rel string) *physical.Node {
		return &physical.Node{Op: physical.FileScan, Rel: rel, BaseCard: card(rel), RowBytes: 512}
	}
	filter := func(rel, v string, child *physical.Node) *physical.Node {
		return &physical.Node{Op: physical.Filter, SelAttr: rel + ".a", Var: v, RowBytes: 512, Children: []*physical.Node{child}}
	}
	srt := func(attr string, child *physical.Node) *physical.Node {
		return &physical.Node{Op: physical.Sort, Attr: attr, RowBytes: child.RowBytes, Children: []*physical.Node{child}}
	}
	join := func(op physical.Op, l, r *physical.Node) *physical.Node {
		return &physical.Node{Op: op, LeftAttr: "R1.jh", RightAttr: "R2.jl", RowBytes: 1024, Children: []*physical.Node{l, r}}
	}
	if _, _, err := db.Materialize("t1", filter("R1", "v1", scan("R1")), b); err != nil {
		return nil, err
	}
	hash := join(physical.HashJoin, filter("R1", "v1", scan("R1")), filter("R2", "v2", scan("R2")))
	return []ownedRoot{
		{"file-scan", scan("R1"), false},
		{"filter/file-scan", filter("R1", "v1", scan("R1")), false},
		{"btree-scan", &physical.Node{Op: physical.BtreeScan, Rel: "R1", Attr: "jh", BaseCard: card("R1"), RowBytes: 512}, false},
		{"sort/file-scan", srt("R1.jh", scan("R1")), false},
		{"temp-scan", &physical.Node{Op: physical.TempScan, Rel: "t1", RowBytes: 512}, false},
		{"hash-join", hash, false},
		{"merge-join", join(physical.MergeJoin,
			srt("R1.jh", filter("R1", "v1", scan("R1"))), srt("R2.jl", filter("R2", "v2", scan("R2")))), false},
		{"index-join", &physical.Node{Op: physical.IndexJoin, Rel: "R2", Attr: "jl", LeftAttr: "R1.jh", RightAttr: "R2.jl",
			BaseCard: card("R2"), RowBytes: 1024, Children: []*physical.Node{filter("R1", "v1", scan("R1"))}}, false},
		{"sort/hash-join", srt("R2.a", hash), false},
		{"hinted/sort/file-scan", srt("R1.jh", scan("R1")), true},
		{"hinted/sort/hash-join", srt("R2.a", hash), true},
	}, nil
}

// ownedBindings binds the variables ownedRoots' plans read.
func ownedBindings() *bindings.Bindings {
	b := bindings.NewBindings(64)
	b.BindSelectivity("v1", 0.5)
	b.BindSelectivity("v2", 0.5)
	return b
}

// runOwned runs one root as its case says: with predictions when hinted.
func runOwned(db *DB, c ownedRoot, b *bindings.Bindings) ([]storage.Row, Schema, error) {
	if c.hinted {
		var n census
		db.count(c.root, &n)
		db.Cards = slices.Repeat([]float64{600}, n.ops)
	}
	rows, schema, _, err := db.Run(c.root, b)
	return rows, schema, err
}

// TestRunResultIsOwned pins Run's ownership contract: the caller owns the
// rows and the schema it returns outright. For every kind of root (see
// ownedRoots) the test writes into every returned row and schema entry,
// then re-runs the plan: the re-run must return the rows of the first,
// and the stored tables and the temporary must be unchanged. Run must
// clear the predictions once used.
func TestRunResultIsOwned(t *testing.T) {
	w := workload.New(11)
	db := testDB(t, w)
	b := ownedBindings()
	cases, err := ownedRoots(w, db, b)
	if err != nil {
		t.Fatal(err)
	}
	stored := storedDigest(t, db, "R1", "R2")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows, schema, err := runOwned(db, c, b)
			if err != nil {
				t.Fatal(err)
			}
			if db.Cards != nil {
				t.Error("Run left its predictions for the next run")
			}
			if len(rows) == 0 {
				t.Fatal("no rows: nothing to write into")
			}
			want := normalize(rows, schema)
			for _, r := range rows {
				for j := range r {
					r[j] = ^r[j]
				}
			}
			for j := range schema {
				schema[j] = fmt.Sprintf("overwritten%d", j)
			}
			again, schema2, err := runOwned(db, c, b)
			if err != nil {
				t.Fatal(err)
			}
			if got := normalize(again, schema2); got != want {
				t.Errorf("re-run after writing into the result returned other rows (%d, first run %d)", len(again), len(rows))
			}
			if got := storedDigest(t, db, "R1", "R2"); got != stored {
				t.Error("writing into the result changed a stored table or the temporary")
			}
		})
	}
}

// siblingDB is a DB of its own over base's store and indexes.
func siblingDB(base *DB) *DB {
	return &DB{Catalog: base.Catalog, Store: base.Store, Indexes: base.Indexes, Acc: &storage.Accountant{}}
}

// keepResults runs every root of ownedRoots once on db and keeps its
// result, runs them all again, interleaved, for three more rounds — each
// run drawing what the earlier ones released — and then reports every
// kept result whose digest changed.
func keepResults(w *workload.Workload, db *DB) error {
	b := ownedBindings()
	roots, err := ownedRoots(w, db, b)
	if err != nil {
		return err
	}
	type kept struct {
		rows   []storage.Row
		schema Schema
		digest string
	}
	keep := make([]kept, len(roots))
	for i, c := range roots {
		rows, schema, err := runOwned(db, c, b)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		keep[i] = kept{rows, schema, digestRows(schema, rows)}
	}
	for range 3 {
		for _, c := range roots {
			if _, _, err := runOwned(db, c, b); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		}
	}
	var changed []string
	for i, k := range keep {
		if digestRows(k.schema, k.rows) != k.digest {
			changed = append(changed, roots[i].name)
		}
	}
	if len(changed) > 0 {
		return fmt.Errorf("later runs changed the kept results of %v", changed)
	}
	return nil
}

// spoolGuard spools the rows materialized at one plan node into the
// temporary "spool", as a re-optimization guard that trips there does.
type spoolGuard struct {
	db *DB
	at *physical.Node
}

func (g spoolGuard) CheckMat(n *physical.Node, _ int, schema Schema, rows func() []int64) error {
	if n == g.at {
		g.db.AddTemp("spool", schema, rows(), n.RowBytes)
	}
	return nil
}

// spooledWeak materializes R1's qualifying rows into a temporary of a DB
// of its own, runs a hash join that builds on a scan of it, and returns a
// weak pointer to the temporary's rows; nothing outside the function
// keeps the DB or the temporary.
func spooledWeak(base *DB, chain *physical.Node, b *bindings.Bindings) (weak.Pointer[int64], error) {
	db := siblingDB(base)
	filtered := chain.Children[0].Children[0] // Filter(R1)
	tmp, _, err := db.Materialize("w", filtered, b)
	if err != nil {
		return weak.Pointer[int64]{}, err
	}
	p := weak.Make(&tmp.Table.Values()[0])
	join := &physical.Node{Op: physical.HashJoin, LeftAttr: "R1.jh", RightAttr: "R2.jl", RowBytes: 1024,
		Children: []*physical.Node{{Op: physical.TempScan, Rel: "w", RowBytes: 512}, chain.Children[0].Children[1]}}
	_, _, _, err = db.Run(join, b)
	return p, err
}

// TestRecycledRunsNeverAlias pins the two lifetimes of a run's memory:
// what a run drops is drawn again by later runs, and nothing the caller
// or a temporary keeps is among it.
//
//   - kept: every result of ownedRoots, kept while all the roots run
//     three more rounds, keeps its digest — from one goroutine, and from
//     four at once on DBs of their own over one store.
//   - spooled: a guard spools the top join's build side of a 3-way chain,
//     an intermediate join's rows, into a temporary; fifty unguarded runs
//     at other selectivities leave the temporary's digest as it was.
//   - panicked: a run that panics through the Wrap hook is followed by
//     runs returning the right rows.
//   - released: once runs have closed, their scratch in the pool keeps
//     no row alive: the rows of a temporary a hash join built on are
//     collected by the next garbage collection.
func TestRecycledRunsNeverAlias(t *testing.T) {
	w := workload.New(11)
	base := testDB(t, w)
	t.Run("kept", func(t *testing.T) {
		if err := keepResults(w, siblingDB(base)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := keepResults(w, siblingDB(base)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	})

	chain, _ := sortedChain(w)
	chain = chain.Children[0] // (R1 ⋈ R2) ⋈ R3, unsorted
	at := func(sel float64) *bindings.Bindings {
		b := bindings.NewBindings(64)
		b.BindSelectivity("v", sel)
		return b
	}
	t.Run("spooled", func(t *testing.T) {
		db := siblingDB(base)
		db.Guards = spoolGuard{db: db, at: chain.Children[0]}
		if _, _, _, err := db.Run(chain, at(1.0)); err != nil {
			t.Fatal(err)
		}
		spool, ok := db.Temps["spool"]
		if !ok || spool.Table.NumRows() == 0 {
			t.Fatal("the guard spooled no rows")
		}
		want := storedDigest(t, db)
		db.Guards = nil
		for i := range 50 {
			sel := 0.1 + 0.2*float64(i%5)
			if _, _, _, err := db.Run(chain, at(sel)); err != nil {
				t.Fatal(err)
			}
			if got := storedDigest(t, db); got != want {
				t.Fatalf("run %d, at selectivity %.1f, changed the rows a guard spooled into a temporary", i, sel)
			}
		}
	})

	t.Run("panicked", func(t *testing.T) {
		db := siblingDB(base)
		rows, schema, _, err := db.Run(chain, at(0.6))
		if err != nil {
			t.Fatal(err)
		}
		want := normalize(rows, schema)
		probe := chain.Children[1]
		db.Wrap = func(it Iterator, n *physical.Node) Iterator {
			if n == probe {
				return panicIter{} // opened once the build side is in
			}
			return it
		}
		if _, _, _, err := db.Run(chain, at(0.6)); !errors.Is(err, qerr.ErrOperatorPanic) {
			t.Fatalf("want ErrOperatorPanic, got %v", err)
		}
		db.Wrap = nil
		for range 3 {
			rows, schema, _, err := db.Run(chain, at(0.6))
			if err != nil {
				t.Fatal(err)
			}
			if got := normalize(rows, schema); got != want {
				t.Fatal("a run after a panicking one returned other rows")
			}
		}
	})

	t.Run("released", func(t *testing.T) {
		p, err := spooledWeak(base, chain, at(0.5))
		if err != nil {
			t.Fatal(err)
		}
		// One collection moves the pool's scratches to its victim cache,
		// where they stay reachable, and nothing else keeps the rows.
		runtime.GC()
		if p.Value() != nil {
			t.Error("a pooled scratch keeps a temporary's rows alive after its run")
		}
	})
}

// TestScratchIsPointerFree checks that no buffer a run draws from its
// scratch holds a pointer: every shelf's element type is pointer-free, so
// the garbage collector neither scans a drawn buffer nor runs a write
// barrier for what a run stores in it, and a pooled scratch keeps nothing
// alive through its buffers.
func TestScratchIsPointerFree(t *testing.T) {
	st := reflect.TypeFor[scratch]()
	shelves := 0
	for i := range st.NumField() {
		f := st.Field(i)
		if !strings.HasPrefix(f.Type.Name(), "shelf[") {
			continue
		}
		shelves++
		bufs, ok := f.Type.FieldByName("bufs")
		if !ok {
			t.Fatalf("scratch.%s: %v has no bufs", f.Name, f.Type)
		}
		if elem := bufs.Type.Elem().Elem(); holdsPointer(elem) {
			t.Errorf("scratch.%s draws buffers of %v, which holds a pointer", f.Name, elem)
		}
	}
	if shelves == 0 {
		t.Fatal("scratch has no shelf")
	}
}

// holdsPointer reports whether a value of type t holds a pointer the
// garbage collector follows.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}
