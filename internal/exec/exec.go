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
// a vector of rows per call instead of one. Rows are immutable while a
// run lasts: scans hand out the stored rows themselves, joins carve theirs
// from shared slabs, and no operator copies or reuses a row it has read or
// returned. A run's memory has two lifetimes. What the caller keeps is
// allocated afresh: a join's rows, carved from the result join's own slab,
// are returned as they are, under a Filter or a Sort too, with the join's
// schema; a result of stored rows — a scan's or a temporary's — is copied
// once, into one contiguous slab, with its schema; the buffer holding the
// result is the root drain's or a root Sort's. Everything else dies with
// the tree and comes from a pooled scratch (see scratch), the frame's
// slabs too (see frame). The buffers that hold a whole input start at the
// start-up sweep's predicted rows when the caller passes them (DB.Cards),
// and grow from minBatch otherwise.
package exec

import (
	"context"
	"fmt"
	"slices"
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
	// NextBatch fills dst (len(dst) ≥ 1) with up to len(dst) rows and
	// returns how many it wrote. Only 0 with a nil error is end of
	// stream; a short vector is not. After an error the stream is over,
	// and n counts the rows written before the failure. Returned rows are
	// immutable and stay valid for good — the operator never modifies or
	// reuses them — so a consumer may keep them without copying; dst
	// itself belongs to the caller.
	NextBatch(dst []storage.Row) (int, error)
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
	// Obs, when non-nil, meters every compiled operator: rows, NextBatch
	// calls, inclusive page/tuple/fault/wall deltas, and buffered-memory
	// high-water, keyed by plan node. A nil Obs (the default) costs one
	// pointer check per protocol call.
	Obs *obs.Collector
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
	// rows returns the buffered rows, in arrival order; the guard calls it
	// only when it decides to act (e.g. to register the materialized
	// result as a temporary), and only during the call. A non-nil error
	// aborts the execution.
	CheckMat(n *physical.Node, count int, schema Schema, rows func() []storage.Row) error
}

// checkMat consults the guard hook at a materialization point over the
// buffered rows; nil-safe, and allocation-free without a guard.
func (db *DB) checkMat(n *physical.Node, schema Schema, rows []storage.Row) error {
	if db.Guards == nil || n == nil {
		return nil
	}
	return db.Guards.CheckMat(n, len(rows), schema, func() []storage.Row { return rows })
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
// other run. When the plan outputs a join's rows (see ownsResult) they
// and the join's schema, carved from the run's frame, are returned as
// they are; otherwise the rows are stored ones and are copied once, into
// one contiguous slab (see detach), and the schema, which the catalog or
// the temporary keeps, is copied too. A root Sort's sorted buffer is
// returned as it is; a streaming root's rows are drained into a slice
// sized as startRows says.
//
// Run is the executor boundary: operator panics are recovered and
// converted into errors wrapping qerr.ErrOperatorPanic, and every
// iterator opened is closed even when Open or NextBatch fails
// mid-pipeline.
func (db *DB) Run(root *physical.Node, b *bindings.Bindings) (rows []storage.Row, schema Schema, err error) {
	sc := scratches.Get().(*scratch)
	db.sc = sc
	defer func() {
		db.sc = nil
		if r := recover(); r != nil {
			// The scratch is dropped: what still points into it is unknown.
			rows, schema, db.Cards = nil, nil, nil
			err = fmt.Errorf("exec: recovered panic %v: %w", r, qerr.ErrOperatorPanic)
			return
		}
		sc.release()
		scratches.Put(sc)
	}()
	if db.Ctx != nil && db.Ctx.Err() != nil {
		db.Cards = nil
		return nil, nil, qerr.FromContext(context.Cause(db.Ctx))
	}
	sc.f = db.newFrame(root)
	it, schema, err := db.Build(root, b)
	var out []storage.Row
	if err == nil && root.Op != physical.Sort {
		out = db.startRows(root, b, nil) // sized to the root's prediction
	}
	sc.f, db.Cards = frame{}, nil // nothing carves or predicts once the tree opens
	if err != nil {
		return nil, nil, err
	}
	// Close unconditionally: if Open or NextBatch failed mid-pipeline the
	// iterator tree may be partially open, and every operator's Close is
	// idempotent and safe on a partially opened tree.
	defer it.Close()
	if err := it.Open(); err != nil {
		return nil, nil, err
	}
	if s, ok := it.inner.(*sortIter); ok {
		// A Sort has buffered and sorted its whole input by now, so its
		// buffer is the result: the drain copies the rows onto themselves
		// in the two calls the meters count.
		out = s.rows[:0]
	}
	out, err = drain(it, out, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := it.Close(); err != nil {
		return nil, nil, err
	}
	if !ownsResult(root) {
		schema, out = slices.Clone(schema), detach(out)
	}
	return out, schema, nil
}

// Build compiles a resolved physical plan into an iterator tree and
// returns its root. Every compiled operator runs under one opIter, which
// names it in the errors it raises (see qerr.OpError) and meters it when a
// collector is installed; the DB's Wrap hook, if any, decorates the
// operator inside it. Under Run, decorators and serial iterators are
// carved from the run's frame.
func (db *DB) Build(n *physical.Node, b *bindings.Bindings) (*opIter, Schema, error) {
	if db.sc == nil {
		db.sc = new(scratch) // outside Run
	}
	it, schema, err := db.compile(n, b)
	if err != nil {
		return nil, nil, err
	}
	db.sc.f.built++
	op := carve(&db.sc.f.ops, opIter{db: db, inner: it, node: n})
	if db.Obs.Enabled() {
		op.c = db.Obs.StatsFor(n)
		op.mem, _ = it.(memReporter)
	}
	if db.Wrap != nil {
		op.inner = db.Wrap(it, n)
	}
	return op, schema, nil
}

// compile dispatches on the operator.
func (db *DB) compile(n *physical.Node, b *bindings.Bindings) (Iterator, Schema, error) {
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
		return nil, nil, fmt.Errorf("exec: plan contains an unresolved Choose-Plan; activate the access module first")
	default:
		return nil, nil, fmt.Errorf("exec: unknown operator %v", n.Op)
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
