package exec

import (
	"fmt"

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

// AddTemp registers a materialized result under a name, charging the page
// writes needed to spool it (the cost of evaluating a subplan into a
// temporary result). It is the one spool path: every temporary is built
// and charged here.
func (db *DB) AddTemp(name string, schema Schema, rows []storage.Row, rowBytes int) *Temp {
	if db.Temps == nil {
		db.Temps = make(map[string]*Temp)
	}
	t := storage.NewTable(name, rowBytes)
	for _, r := range rows {
		t.Append(r)
	}
	if db.Acc == nil {
		db.Acc = &storage.Accountant{}
	}
	db.Acc.Write(int64(t.NumPages()))
	temp := &Temp{Schema: schema, Table: t}
	db.Temps[name] = temp
	return temp
}

// Materialize executes a subplan and spools its result into a temporary,
// returning the temp and the observed cardinality.
func (db *DB) Materialize(name string, n *physical.Node, b *bindings.Bindings) (*Temp, int, error) {
	rows, schema, _, err := db.Run(n, b)
	if err != nil {
		return nil, 0, err
	}
	temp := db.AddTemp(name, schema, rows, n.RowBytes)
	return temp, len(rows), nil
}

// buildTempScan compiles Temp-Scan.
func (db *DB) buildTempScan(n *physical.Node) (Iterator, Schema, error) {
	temp, ok := db.Temps[n.Rel]
	if !ok {
		return nil, nil, fmt.Errorf("exec: unknown temporary %q", n.Rel)
	}
	// Temporaries live in memory; the fault injector deliberately does not
	// see their reads — injected page faults model base-table I/O.
	return &tempScanIter{db: db, node: n, schema: temp.Schema, table: temp.Table, acc: db.Acc}, temp.Schema, nil
}

type tempScanIter struct {
	db     *DB
	node   *physical.Node
	schema Schema
	table  *storage.Table
	acc    *storage.Accountant
	rows   []storage.Row
	pos    int
}

func (it *tempScanIter) Open() error {
	it.rows = it.rows[:0]
	it.pos = 0
	it.table.Scan(it.acc, func(r storage.Row) bool {
		it.rows = append(it.rows, r)
		return true
	})
	// A loaded temporary is a materialization point too: a temp spooled
	// under one cardinality assumption may feed a plan that predicted
	// another.
	return it.db.checkMat(it.node, it.schema, it.rows)
}

// NextBatch hands out the loaded rows, one tuple charge per row.
func (it *tempScanIter) NextBatch(dst []storage.Row) (int, error) {
	if err := it.db.checkCancel(); err != nil {
		return 0, err
	}
	if it.pos >= len(it.rows) {
		return 0, nil
	}
	n := copy(dst, it.rows[it.pos:])
	it.pos += n
	it.acc.Tuples(int64(n))
	return n, nil
}

func (it *tempScanIter) Close() error {
	it.rows = nil
	return nil
}

// MemoryHighWater reports the spooled temporary's in-memory footprint.
func (it *tempScanIter) MemoryHighWater() int64 {
	return int64(it.table.NumPages()) * storage.PageBytes
}
