// Package exec is a Volcano-style iterator execution engine for the
// physical plans the optimizer produces.
//
// The paper's prototype reported optimizer-predicted run-times (§6,
// footnote 4); this engine goes further: resolved plans (static plans, or
// dynamic plans after start-up activation) run against the simulated
// storage layer, producing both actual result rows and accounted I/O. The
// integration tests use it to verify the semantic heart of dynamic plans:
// every alternative linked by a choose-plan operator computes the same
// result.
//
// Each operator is an Iterator (Open / NextBatch / Close), the execution
// paradigm of the Volcano system the optimizer generator belongs to with
// a vector of tuples per call instead of one row. Tuples are late
// materialized: a tuple is one int32 row position per source under the
// operator — each base relation or temporary it reads, in the order the
// plan's leaves appear — so every vector is a flat, pointer-free []int32
// and no operator copies a value while the tree runs. Stored rows live in
// one flat []int64 per table, and an operator reads a key or a predicate
// value through one accessor, column.at: the position times the row
// width, plus the column. Only Run copies values: once the root's stream
// is drained, the result's values, source by source, go into one exact
// []int64 that the caller's rows are views of (see materialize). Every
// buffer a run drops comes from a pooled scratch that holds no pointer
// (see scratch), the frame's slabs too (see frame). The buffers that hold
// a whole input start at the start-up sweep's predicted rows when the
// caller passes them (DB.Cards), and grow from minBatch otherwise.
package exec

import (
	"context"
	"fmt"
	"strings"

	"dynplan/internal/bindings"
	"dynplan/internal/btree"
	"dynplan/internal/catalog"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/qerr"
	"dynplan/internal/storage"
)

// Schema is the ordered list of qualified column names ("R1.a") an
// iterator produces.
type Schema []string

// Index returns the position of a qualified column, or an error.
func (s Schema) Index(name string) (int, error) {
	for i, c := range s {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("exec: column %q not in schema %v", name, []string(s))
}

// Iterator is the Volcano operator interface, batched.
type Iterator interface {
	// Open prepares the iterator (building hash tables, sorting, …).
	Open() error
	// NextBatch fills dst with up to len(dst)/k tuples, k the number of
	// sources under the operator (len(opIter.tabs); len(dst) ≥ k), tuple
	// i at dst[i*k:(i+1)*k], and returns how many it wrote. Only 0 with a
	// nil error is end of stream; a short vector is not. After an error
	// the stream is over, and n counts the tuples written before the
	// failure. A tuple's positions name stored rows, which stay valid for
	// good; dst belongs to the caller.
	NextBatch(dst []int32) (int, error)
	// Close releases resources. Close is idempotent.
	Close() error
}

// DB bundles everything an execution needs: catalog for domain lookups,
// the simulated store, the B-tree indexes and an I/O accountant.
type DB struct {
	Catalog *catalog.Catalog
	Store   *storage.Store
	Indexes map[string]map[string]*btree.Tree
	Acc     *storage.Accountant
	// Temps holds run-time materialized results, keyed by temporary name
	// (see Temp).
	Temps map[string]*Temp

	// Ctx, when non-nil, is polled once per NextBatch call of every
	// streaming operator; once it ends, the next poll stops execution with
	// an error wrapping qerr.ErrCanceled or qerr.ErrDeadlineExceeded. Set
	// it before Run.
	Ctx context.Context
	// Faults, when non-nil, routes base-table page reads through the
	// fault injector (in-memory temporaries are exempt). Injected
	// failures carry the qerr taxonomy and the raising operator.
	Faults *storage.Injector
	// Wrap, when non-nil, decorates every compiled iterator (inside its
	// operator decorator); the leak-checking test wrapper uses it.
	Wrap func(it Iterator, n *physical.Node) Iterator
	// Meter, when set, makes Run meter every compiled operator — rows,
	// NextBatch calls, inclusive page/tuple/fault/wall deltas, and
	// buffered-memory high-water — into the stats tree it returns. Unset
	// (the default), metering costs one nil check per protocol call.
	Meter bool
	// Guards, when non-nil, is consulted at every materialization point —
	// a hash-join build fully drained, a sort input fully buffered, a
	// temporary fully loaded — with the materialized subtree's plan node
	// and observed row count. A guard error aborts the execution (the
	// re-optimization layer catches it above); nil Guards (the default)
	// costs one pointer check per materialization.
	Guards MatGuard

	// Cards, when set, are the plan's predicted rows per operator in
	// post-order (plan.StartupReport.Cards); they size the next serial
	// Run's buffers and nothing else (see startRows). Run clears them once
	// the plan is built: no later Run or Materialize reads them.
	Cards []float64

	sc *scratch // the run's scratch; Build makes one of its own outside Run
}

// MatGuard observes materialization points as tuples finish flowing into
// them. The executor defines the interface (rather than importing the
// re-optimization layer) so internal/reopt can implement it without an
// import cycle.
type MatGuard interface {
	// CheckMat is called when the materialization rooted at plan node n
	// has fully drained: count rows of the given schema were buffered.
	// rows returns the buffered rows' values, flat, row after row in
	// arrival order, for the guard to keep (e.g. as a temporary's rows);
	// the guard calls it only when it decides to act, and only during the
	// call. A non-nil error aborts the execution. The schema is the run's:
	// a guard that keeps it copies it.
	CheckMat(n *physical.Node, count int, schema Schema, rows func() []int64) error
}

// checkMat consults the guard hook at a materialization point over the
// buffered tuples, each one position per table of tabs; nil-safe, and
// allocation-free without a guard.
func (db *DB) checkMat(n *physical.Node, schema Schema, tuples []int32, tabs []*storage.Table) error {
	if db.Guards == nil || n == nil {
		return nil
	}
	return db.Guards.CheckMat(n, len(tuples)/len(tabs), schema, func() []int64 {
		vals, _ := materialize(tuples, tabs, false)
		return vals
	})
}

// checkCancel polls the context — a non-blocking receive on its Done
// channel; on expiry it returns the context's cause through
// qerr.FromContext: an error wrapping qerr.ErrCanceled or
// qerr.ErrDeadlineExceeded, or a cause the caller attached with
// context.WithCancelCause.
func (db *DB) checkCancel() error {
	if db.Ctx == nil {
		return nil
	}
	select {
	case <-db.Ctx.Done():
		return qerr.FromContext(context.Cause(db.Ctx))
	default:
		return nil
	}
}

// pageRead charges one page read (sequential or random) for a base table
// and routes it through the fault injector, if any.
func (db *DB) pageRead(table string, page int32, seq bool) error {
	if seq {
		db.Acc.ReadSeq(1)
	} else {
		db.Acc.ReadRand(1)
	}
	return db.Faults.PageRead(table, page, db.Acc)
}

// Run executes a resolved plan under the bindings and returns all result
// rows and the output schema. The plan must not contain choose-plan
// operators; activate the access module first. The caller owns the rows
// and the schema, which alias no stored table data, no temporary and no
// other run: the rows are views of one exact []int64 the run's values
// were copied into, and the schema is the run's own. An empty result has
// nil rows.
//
// With db.Meter set, stats are the run's stats tree as one slab, the
// caller's: every operator's PlanStats in post-order — an operator's
// inputs, left to right, before it, the order of DB.Cards — so the root's
// are last. Unmetered, or on an error, stats are nil.
//
// Run is the executor boundary: operator panics are recovered and
// converted into errors wrapping qerr.ErrOperatorPanic, and every
// iterator opened is closed even when Open or NextBatch fails
// mid-pipeline.
func (db *DB) Run(root *physical.Node, b *bindings.Bindings) (rows []storage.Row, schema Schema, stats []obs.PlanStats, err error) {
	_, rows, schema, stats, err = db.run(root, b, true)
	return rows, schema, stats, err
}

// run is Run that returns the result's values flat, row after row, and
// their row views only with views set.
func (db *DB) run(root *physical.Node, b *bindings.Bindings, views bool) (vals []int64, rows []storage.Row, schema Schema, stats []obs.PlanStats, err error) {
	sc := scratches.Get().(*scratch)
	db.sc = sc
	defer func() {
		db.sc = nil
		if r := recover(); r != nil {
			// The scratch is dropped: what still points into it is unknown.
			vals, rows, schema, stats, db.Cards = nil, nil, nil, nil, nil
			err = fmt.Errorf("exec: recovered panic %v: %w", r, qerr.ErrOperatorPanic)
			return
		}
		sc.release()
		scratches.Put(sc)
	}()
	if db.Ctx != nil && db.Ctx.Err() != nil {
		db.Cards = nil
		return nil, nil, nil, nil, qerr.FromContext(context.Cause(db.Ctx))
	}
	sc.f = db.newFrame(root)
	stats = sc.f.stats // Build carves it whole
	it, schema, err := db.Build(root, b)
	var out []int32
	if err == nil && root.Op != physical.Sort {
		out = db.startRows(root, len(it.tabs), b) // sized to the root's prediction
	}
	sc.f, db.Cards = frame{}, nil // nothing carves or predicts once the tree opens
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// Close unconditionally: if Open or NextBatch failed mid-pipeline the
	// iterator tree may be partially open, and every operator's Close is
	// idempotent and safe on a partially opened tree.
	defer it.Close()
	if err := it.Open(); err != nil {
		return nil, nil, nil, nil, err
	}
	k := len(it.tabs)
	if s, ok := it.inner.(*sortIter); ok {
		// A Sort has buffered and sorted its whole input by now: a buffer
		// of exactly its tuples drains it in the two calls the meters
		// count.
		out = draw(sc, intShelf, len(s.order)*k)[:0]
	}
	out, err = drain(it, k, out, sc)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if err := it.Close(); err != nil {
		return nil, nil, nil, nil, err
	}
	vals, rows = materialize(out, it.tabs, views)
	return vals, rows, schema, stats, nil
}

// Build compiles a resolved physical plan into an iterator tree and
// returns its root and schema. The root's tabs are the tables its tuples'
// positions point into, one per source: a scan's or a Temp-Scan's own,
// a join's its inputs' in order. Every compiled operator runs under one
// opIter, which names it in the errors it raises (see qerr.OpError) and,
// with db.Meter set, meters it; the DB's Wrap hook, if any, decorates the
// operator inside it. Under Run, decorators, serial iterators, the
// sources, the schema's names and stats are carved from the run's frame.
func (db *DB) Build(n *physical.Node, b *bindings.Bindings) (*opIter, Schema, error) {
	if db.sc == nil {
		db.sc = new(scratch) // outside Run
	}
	f := &db.sc.f
	srcs, names := len(f.srcs), len(f.names)
	it, err := db.compile(n, b)
	if err != nil {
		return nil, nil, err
	}
	f.built++
	op := carve(&f.ops, opIter{db: db, inner: it, node: n, tabs: f.srcs[srcs:len(f.srcs):len(f.srcs)]})
	if db.Meter {
		op.c = db.meter(n)
		op.mem, _ = it.(memReporter)
	}
	if db.Wrap != nil {
		op.inner = db.Wrap(it, n)
	}
	return op, f.names[names:len(f.names):len(f.names)], nil
}

// source appends a leaf's table and its columns to the frame: the tuples
// of every operator above the leaf hold one position into t, and their
// schemas hold its columns, in leaf order.
func (db *DB) source(t *storage.Table, schema Schema) {
	f := &db.sc.f
	f.srcs = append(f.srcs, t)
	f.names = append(f.names, schema...)
}

// meter carves n's stats from the frame, labelled, and returns their
// counters. n's inputs finished last, so their stats top the frame's open
// stack: they become n's Children, and n's stats take their place.
func (db *DB) meter(n *physical.Node) *obs.Counters {
	f, labels := &db.sc.f, &db.sc.labels
	start := labels.Len()
	var buf [128]byte
	labels.Write(n.AppendLabel(buf[:0]))
	s := carve(&f.stats, obs.PlanStats{Op: n.Op.String(), Label: labels.String()[start:], Rel: n.Rel})
	if k := len(n.Children); k > 0 {
		if len(f.kids) < k {
			f.kids = make([]*obs.PlanStats, k)
		}
		s.Children, f.kids = f.kids[:k:k], f.kids[k:]
		top := len(f.open) - k
		copy(s.Children, f.open[top:])
		f.open = f.open[:top]
	}
	f.open = append(f.open, s)
	return &s.Counters
}

// compile dispatches on the operator.
func (db *DB) compile(n *physical.Node, b *bindings.Bindings) (Iterator, error) {
	if db.Acc == nil {
		db.Acc = &storage.Accountant{}
	}
	switch n.Op {
	case physical.FileScan:
		return db.buildFileScan(n)
	case physical.BtreeScan:
		return db.buildBtreeScan(n)
	case physical.FilterBtreeScan:
		return db.buildFilterBtreeScan(n, b)
	case physical.Filter:
		return db.buildFilter(n, b)
	case physical.Sort:
		return db.buildSort(n, b)
	case physical.HashJoin:
		return db.buildHashJoin(n, b)
	case physical.MergeJoin:
		return db.buildMergeJoin(n, b)
	case physical.IndexJoin:
		return db.buildIndexJoin(n, b)
	case physical.TempScan:
		return db.buildTempScan(n)
	case physical.ChoosePlan:
		return nil, fmt.Errorf("exec: plan contains an unresolved Choose-Plan; activate the access module first")
	default:
		return nil, fmt.Errorf("exec: unknown operator %v", n.Op)
	}
}

// relSchema returns the qualified schema of a base relation: the names the
// catalog cached, shared and never modified.
func (db *DB) relSchema(relName string) (Schema, error) {
	rel, err := db.Catalog.Relation(relName)
	if err != nil {
		return nil, err
	}
	return rel.QualifiedNames(), nil
}

// predicate resolves a selection predicate "SelAttr <= ?Var" (or a bound
// predicate with FixedSel) against a schema: it returns the column index
// and the exclusive upper literal derived from the bound selectivity
// (literal = selectivity × domain size; attribute values are uniform over
// [0, domain)).
func (db *DB) predicate(selAttr, v string, fixedSel float64, schema Schema, b *bindings.Bindings) (col int, limit float64, err error) {
	col, err = schema.Index(selAttr)
	if err != nil {
		return 0, 0, err
	}
	sel := fixedSel
	if v != "" {
		sel, err = b.Selectivity(v)
		if err != nil {
			return 0, 0, err
		}
	}
	relName, attrName, ok := strings.Cut(selAttr, ".")
	if !ok {
		return 0, 0, fmt.Errorf("exec: predicate attribute %q is not qualified", selAttr)
	}
	rel, err := db.Catalog.Relation(relName)
	if err != nil {
		return 0, 0, err
	}
	attr, err := rel.Attribute(attrName)
	if err != nil {
		return 0, 0, err
	}
	return col, sel * float64(attr.DomainSize), nil
}

// index looks up a B-tree.
func (db *DB) index(rel, attr string) (*btree.Tree, error) {
	m, ok := db.Indexes[rel]
	if !ok {
		return nil, fmt.Errorf("exec: no indexes for relation %q", rel)
	}
	t, ok := m[attr]
	if !ok {
		return nil, fmt.Errorf("exec: no B-tree on %s.%s", rel, attr)
	}
	return t, nil
}

// pagesOf returns the number of pages n rows of the given width occupy.
func pagesOf(rowBytes int, n int) float64 {
	if n <= 0 {
		return 0
	}
	perPage := catalog.PageBytes / rowBytes
	if perPage < 1 {
		perPage = 1
	}
	return float64((n + perPage - 1) / perPage)
}
