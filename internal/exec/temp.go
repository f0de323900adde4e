package exec

import (
	"fmt"
	"slices"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/storage"
)

// Temp is a materialized intermediate result: rows in a page-shaped
// container plus their schema. The re-optimization layer (internal/reopt)
// creates temps when it observes a single-relation subplan's actual
// cardinality — eagerly, by evaluating the subplan as part of the
// choose-plan decision procedure (the paper's §7 direction), or lazily,
// by spooling a materialization a cardinality guard tripped on.
type Temp struct {
	Schema Schema
	Table  *storage.Table
}

// AddTemp registers a materialized result under a name — rows holds its
// values, len(schema) a row, row after row, and the temporary adopts them
// — charging the page writes needed to spool it (the cost of evaluating a
// subplan into a temporary result). It is the one spool path: every
// temporary is built and charged here. The schema is copied.
func (db *DB) AddTemp(name string, schema Schema, rows []int64, rowBytes int) *Temp {
	if db.Temps == nil {
		db.Temps = make(map[string]*Temp)
	}
	t := storage.NewTable(name, len(schema), rowBytes, rows)
	if db.Acc == nil {
		db.Acc = &storage.Accountant{}
	}
	db.Acc.Write(int64(t.NumPages()))
	temp := &Temp{Schema: slices.Clone(schema), Table: t}
	db.Temps[name] = temp
	return temp
}

// Materialize executes a subplan and spools its result into a temporary,
// returning the temp and the observed cardinality.
func (db *DB) Materialize(name string, n *physical.Node, b *bindings.Bindings) (*Temp, int, error) {
	vals, _, schema, _, err := db.run(n, b, false)
	if err != nil {
		return nil, 0, err
	}
	temp := db.AddTemp(name, schema, vals, n.RowBytes)
	return temp, temp.Table.NumRows(), nil
}

// buildTempScan compiles Temp-Scan.
func (db *DB) buildTempScan(n *physical.Node) (Iterator, error) {
	temp, ok := db.Temps[n.Rel]
	if !ok {
		return nil, fmt.Errorf("exec: unknown temporary %q", n.Rel)
	}
	db.source(temp.Table, temp.Schema)
	// Temporaries live in memory; the fault injector deliberately does not
	// see their reads — injected page faults model base-table I/O.
	return &tempScanIter{db: db, node: n, schema: temp.Schema, table: temp.Table, acc: db.Acc}, nil
}

type tempScanIter struct {
	db     *DB
	node   *physical.Node
	schema Schema
	table  *storage.Table
	acc    *storage.Accountant
	pos    int // the next row's position
}

// Open loads the temporary: one sequential read per page.
func (it *tempScanIter) Open() error {
	it.pos = 0
	it.acc.ReadSeq(int64(it.table.NumPages()))
	// A loaded temporary is a materialization point too: a temp spooled
	// under one cardinality assumption may feed a plan that predicted
	// another. Its rows are already flat, and immutable.
	if g := it.db.Guards; g != nil {
		vals := it.table.Values()
		return g.CheckMat(it.node, it.table.NumRows(), it.schema, func() []int64 { return vals })
	}
	return nil
}

// NextBatch hands out the loaded rows' positions, one tuple charge per
// row.
func (it *tempScanIter) NextBatch(dst []int32) (int, error) {
	if err := it.db.checkCancel(); err != nil {
		return 0, err
	}
	n := min(len(dst), it.table.NumRows()-it.pos)
	if n <= 0 {
		return 0, nil
	}
	for i := range n {
		dst[i] = int32(it.pos + i)
	}
	it.pos += n
	it.acc.Tuples(int64(n))
	return n, nil
}

func (it *tempScanIter) Close() error { return nil }

// MemoryHighWater reports the spooled temporary's in-memory footprint.
func (it *tempScanIter) MemoryHighWater() int64 {
	return int64(it.table.NumPages()) * storage.PageBytes
}
