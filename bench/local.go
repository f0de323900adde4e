package main

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"dynplan"
)

// outcome is what one op reports back to the measuring loop.
type outcome struct {
	// rows is the full result size; it must not change between passes.
	rows int
	// serverUS and reused are the server's own account of an HTTP op
	// (response elapsed_ms and prepared_reused); zero in-process.
	serverUS float64
	reused   bool
}

// target is where ops go: the library in-process, or obsd over HTTP.
type target interface {
	// do runs op i of the list on behalf of a client.
	do(ctx context.Context, client, i int) (outcome, error)
	// memory reports the allocation and GC counters of the process that
	// executes the queries.
	memory(ctx context.Context) (memCounters, error)
	// verify re-runs op i through an independent plan and reports a
	// mismatch with what do returned for it.
	verify(ctx context.Context, i int, seen outcome) error
	// traced makes the traced run's measurements (traced.go) and returns
	// them with the ops it attempted and failed.
	traced(ctx context.Context, cfg runConfig, rec *recorder, seen []outcome) (*result, map[string]float64, error)
	close() error
}

// local executes ops through the public dynplan API.
type local struct {
	e *engine
	w *workload
	// queries holds each statement parsed once (the oracle reuses them);
	// prepared holds the statement handles the pinned workloads execute.
	queries  []*dynplan.Query
	prepared []*dynplan.PreparedQuery
}

// newLocal builds the database and prepares every statement.
func newLocal(w *workload) (*local, error) {
	e, err := paperEngine()
	if err != nil {
		return nil, err
	}
	l := &local{e: e, w: w}
	for _, st := range w.statements {
		q, err := e.sys.Parse(st.sql)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", st.sql, err)
		}
		l.queries = append(l.queries, q)
		if w.reparse {
			continue // prepared per op, through the cache
		}
		p, err := e.db.Prepare(q)
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", st.sql, err)
		}
		l.prepared = append(l.prepared, p)
	}
	return l, nil
}

// exec is the timed surface: what a caller of the library does per op.
func (l *local) exec(ctx context.Context, o op) (*dynplan.ExecResult, error) {
	var p *dynplan.PreparedQuery
	if l.w.reparse {
		q, err := l.e.sys.Parse(l.w.statements[o.stmt].sql)
		if err != nil {
			return nil, err
		}
		if p, err = l.e.db.Prepare(q); err != nil {
			return nil, err
		}
	} else {
		p = l.prepared[o.stmt]
	}
	res, err := p.Exec(ctx, o.bind, dynplan.ExecOptions{})
	if err != nil {
		return nil, err
	}
	return res.Project(p.Query().Projection())
}

func (l *local) do(ctx context.Context, _, i int) (outcome, error) {
	res, err := l.exec(ctx, l.w.ops[i])
	if err != nil {
		return outcome{}, err
	}
	return outcome{rows: len(res.Rows)}, nil
}

func (l *local) memory(context.Context) (memCounters, error) { return readMemCounters(), nil }

func (l *local) close() error { return nil }

// verify compares the op's result with the oracle's as a canonical
// multiset, and checks that an ORDER BY result arrives ordered.
func (l *local) verify(ctx context.Context, i int, seen outcome) error {
	o := l.w.ops[i]
	got, err := l.exec(ctx, o)
	if err != nil {
		return err
	}
	if len(got.Rows) != seen.rows {
		return fmt.Errorf("%d rows on re-execution, %d in the timed phase", len(got.Rows), seen.rows)
	}
	q := l.queries[o.stmt]
	want, err := oracle(ctx, l.e, q, o.bind)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := sameMultiset(got, want); err != nil {
		return err
	}
	if col := q.OrderBy(); col != "" {
		i := slices.Index(got.Columns, col)
		if i < 0 {
			return nil // projected away
		}
		if !sort.SliceIsSorted(got.Rows, func(a, b int) bool { return got.Rows[a][i] < got.Rows[b][i] }) {
			return fmt.Errorf("result not ordered by %s", col)
		}
	}
	return nil
}

// oracle answers the query by the path the paper calls run-time
// optimization: a static plan optimized for exactly these bindings,
// executed directly. It shares no plan, no cache entry and no choose-plan
// decision with the prepared path it checks.
func oracle(ctx context.Context, e *engine, q *dynplan.Query, b dynplan.Bindings) (*dynplan.ExecResult, error) {
	pl, err := e.sys.OptimizeAt(q, b)
	if err != nil {
		return nil, err
	}
	res, err := e.db.Exec(ctx, pl, b, dynplan.ExecOptions{})
	if err != nil {
		return nil, err
	}
	return res.Project(q.Projection())
}

// canonical returns the result's rows with columns in name order and
// rows in lexicographic order: two plans for one query may permute both.
func canonical(r *dynplan.ExecResult) ([]string, [][]int64) {
	perm := make([]int, len(r.Columns))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return r.Columns[perm[a]] < r.Columns[perm[b]] })
	cols := make([]string, len(perm))
	for k, j := range perm {
		cols[k] = r.Columns[j]
	}
	rows := make([][]int64, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = make([]int64, len(perm))
		for k, j := range perm {
			rows[i][k] = row[j]
		}
	}
	sort.Slice(rows, func(a, b int) bool { return slices.Compare(rows[a], rows[b]) < 0 })
	return cols, rows
}

func sameMultiset(got, want *dynplan.ExecResult) error {
	gc, gr := canonical(got)
	wc, wr := canonical(want)
	if !slices.Equal(gc, wc) {
		return fmt.Errorf("columns %v, oracle has %v", gc, wc)
	}
	if len(gr) != len(wr) {
		return fmt.Errorf("%d rows, oracle has %d", len(gr), len(wr))
	}
	for i := range gr {
		if !slices.Equal(gr[i], wr[i]) {
			return fmt.Errorf("row %d of the sorted result is %v, oracle has %v", i, gr[i], wr[i])
		}
	}
	return nil
}
