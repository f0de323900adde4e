package exec

import (
	"math"

	"dynplan/internal/bindings"
	"dynplan/internal/btree"
	"dynplan/internal/physical"
	"dynplan/internal/storage"
)

// buildFileScan compiles File-Scan: a sequential heap-file scan.
func (db *DB) buildFileScan(n *physical.Node) (Iterator, Schema, error) {
	schema, err := db.relSchema(n.Rel)
	if err != nil {
		return nil, nil, err
	}
	table, err := db.Store.Table(n.Rel)
	if err != nil {
		return nil, nil, err
	}
	return carve(&db.sc.f.files, fileScanIter{db: db, table: table}), schema, nil
}

type fileScanIter struct {
	db    *DB
	table *storage.Table
	page  int
	slot  int
}

func (it *fileScanIter) Open() error {
	it.page, it.slot = 0, 0
	return nil
}

// NextBatch walks the pages: a page ends when its slots do, and its read
// is charged (and offered to the fault injector) just before its first row
// is delivered — so a vector that stops at a page boundary has not read
// the next page. One cancellation poll and one tuple charge per vector.
func (it *fileScanIter) NextBatch(dst []storage.Row) (int, error) {
	if err := it.db.checkCancel(); err != nil {
		return 0, err
	}
	n := 0
	var err error
	for n < len(dst) && it.page < it.table.NumPages() {
		rows := it.table.Page(it.page)
		if it.slot == len(rows) {
			it.page++
			it.slot = 0
			continue
		}
		if it.slot == 0 {
			if err = it.db.pageRead(it.table.Name(), int32(it.page), true); err != nil {
				break
			}
		}
		c := copy(dst[n:], rows[it.slot:])
		it.slot += c
		n += c
	}
	if n > 0 {
		it.db.Acc.Tuples(int64(n))
	}
	return n, err
}

func (it *fileScanIter) Close() error { return nil }

// buildBtreeScan compiles B-tree-Scan: a full scan through an unclustered
// index, delivering rows in index order at one random I/O per record.
func (db *DB) buildBtreeScan(n *physical.Node) (Iterator, Schema, error) {
	schema, err := db.relSchema(n.Rel)
	if err != nil {
		return nil, nil, err
	}
	table, err := db.Store.Table(n.Rel)
	if err != nil {
		return nil, nil, err
	}
	tree, err := db.index(n.Rel, n.Attr)
	if err != nil {
		return nil, nil, err
	}
	return carve(&db.sc.f.btrees, btreeScanIter{
		db: db, table: table, tree: tree,
		lo: math.Inf(-1), hi: math.Inf(1),
	}), schema, nil
}

// buildFilterBtreeScan compiles Filter-B-tree-Scan: an index range scan
// fetching only qualifying records.
func (db *DB) buildFilterBtreeScan(n *physical.Node, b *bindings.Bindings) (Iterator, Schema, error) {
	schema, err := db.relSchema(n.Rel)
	if err != nil {
		return nil, nil, err
	}
	table, err := db.Store.Table(n.Rel)
	if err != nil {
		return nil, nil, err
	}
	tree, err := db.index(n.Rel, n.Attr)
	if err != nil {
		return nil, nil, err
	}
	_, limit, err := db.predicate(n.SelAttr, n.Var, n.FixedSel, schema, b)
	if err != nil {
		return nil, nil, err
	}
	return carve(&db.sc.f.btrees, btreeScanIter{
		db: db, table: table, tree: tree,
		lo: math.Inf(-1), hi: limit, exclusiveHi: true,
	}), schema, nil
}

// btreeScanIter drains an index range eagerly at Open (collecting RIDs,
// which are small) and fetches records lazily, charging one random I/O
// per fetch.
type btreeScanIter struct {
	db    *DB
	table *storage.Table
	tree  *btree.Tree
	lo    float64
	hi    float64
	// exclusiveHi makes the upper bound strict ("attr < hi"), the
	// predicate form bound selectivities translate to.
	exclusiveHi bool

	rids []storage.RID
	pos  int
}

func (it *btreeScanIter) Open() error {
	it.pos = 0
	loKey := int64(math.MinInt64)
	if !math.IsInf(it.lo, -1) {
		loKey = int64(math.Ceil(it.lo))
	}
	hiKey := int64(math.MaxInt64)
	if !math.IsInf(it.hi, 1) {
		if it.exclusiveHi {
			hiKey = int64(math.Ceil(it.hi)) - 1
		} else {
			hiKey = int64(math.Floor(it.hi))
		}
	}
	it.rids = it.tree.AppendRange(it.rids[:0], loKey, hiKey)
	return nil
}

// NextBatch fetches up to len(dst) of the drained RIDs.
func (it *btreeScanIter) NextBatch(dst []storage.Row) (int, error) {
	if err := it.db.checkCancel(); err != nil {
		return 0, err
	}
	n := 0
	var err error
	for n < len(dst) && it.pos < len(it.rids) {
		var row storage.Row
		if row, err = it.table.Fetch(it.rids[it.pos], it.db.Acc, it.db.Faults); err != nil {
			break
		}
		it.pos++
		dst[n] = row
		n++
	}
	if n > 0 {
		it.db.Acc.Tuples(int64(n))
	}
	return n, err
}

func (it *btreeScanIter) Close() error { return nil }

// buildFilter compiles Filter: a streaming selection.
func (db *DB) buildFilter(n *physical.Node, b *bindings.Bindings) (Iterator, Schema, error) {
	child, schema, err := db.Build(n.Children[0], b)
	if err != nil {
		return nil, nil, err
	}
	col, limit, err := db.predicate(n.SelAttr, n.Var, n.FixedSel, schema, b)
	if err != nil {
		return nil, nil, err
	}
	return carve(&db.sc.f.filters, filterIter{db: db, child: child, col: col, limit: limit}), schema, nil
}

type filterIter struct {
	db    *DB
	child Iterator
	col   int
	limit float64
}

func (it *filterIter) Open() error { return it.child.Open() }

// NextBatch reads an input vector straight into dst and compacts the
// qualifying rows to its front, one tuple charge per input row; an input
// vector with no qualifying row is followed by the next. Reading at most
// len(dst) input rows keeps every qualifying row it reads; compaction
// stores a row header only once a row before it was dropped.
func (it *filterIter) NextBatch(dst []storage.Row) (int, error) {
	for {
		m, err := it.child.NextBatch(dst)
		if m > 0 {
			it.db.Acc.Tuples(int64(m))
		}
		n := 0
		for n < m && float64(dst[n][it.col]) < it.limit {
			n++
		}
		for _, row := range dst[min(n+1, m):m] {
			if float64(row[it.col]) < it.limit {
				dst[n] = row
				n++
			}
		}
		if n > 0 || m == 0 || err != nil {
			return n, err
		}
	}
}

func (it *filterIter) Close() error { return it.child.Close() }
