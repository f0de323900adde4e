// Package storage is the simulated disk underneath the execution engine.
//
// The paper's prototype never executed plans against real data (its
// reported run-times are optimizer predictions, §6 footnote 4); this
// reproduction goes further and provides a storage substrate that plans can
// actually run on. Records live in page-shaped containers and every page
// touched is charged to an Accountant, so executed plans produce I/O counts
// comparable with the cost model: sequential page reads for scans,
// random page reads for unclustered index fetches, and page writes for
// partitioning and run generation.
package storage

import "fmt"

// PageBytes mirrors catalog.PageBytes; storage is independent of the
// catalog package so the execution substrate can be reused on its own.
const PageBytes = 2048

// Row is one record: a vector of integer attribute values. The experiment
// schema is purely numeric (uniform integer domains), which is all the
// paper's cost model reasons about. A table hands out views of its own
// rows, and no reader may modify them.
type Row = []int64

// RID identifies a record by page number and slot within the page, the
// unit an unclustered index stores.
type RID struct {
	Page int32
	Slot int32
}

// Accountant tallies the simulated I/O and CPU work of an execution. It
// has one owner, the goroutine that runs the execution; the zero value is
// an empty tally.
type Accountant struct {
	seqPageReads  int64
	randPageReads int64
	pageWrites    int64
	tuples        int64
}

// ReadSeq charges n sequential page reads.
func (a *Accountant) ReadSeq(n int64) { a.seqPageReads += n }

// ReadRand charges n random page reads.
func (a *Accountant) ReadRand(n int64) { a.randPageReads += n }

// Write charges n page writes.
func (a *Accountant) Write(n int64) { a.pageWrites += n }

// Tuples charges n units of per-tuple CPU work.
func (a *Accountant) Tuples(n int64) { a.tuples += n }

// SeqPageReads returns the sequential page reads charged so far.
func (a *Accountant) SeqPageReads() int64 { return a.seqPageReads }

// RandPageReads returns the random page reads charged so far.
func (a *Accountant) RandPageReads() int64 { return a.randPageReads }

// PageWrites returns the page writes charged so far.
func (a *Accountant) PageWrites() int64 { return a.pageWrites }

// TupleOps returns the per-tuple CPU operations charged so far.
func (a *Accountant) TupleOps() int64 { return a.tuples }

// AccountSnapshot is a point-in-time copy of an accountant's counters,
// used to attribute deltas of work to an interval (the metering iterators
// snapshot around every operator call).
type AccountSnapshot struct {
	SeqPageReads, RandPageReads, PageWrites, TupleOps int64
}

// Snapshot captures the current counter values.
func (a *Accountant) Snapshot() AccountSnapshot {
	return AccountSnapshot{
		SeqPageReads:  a.SeqPageReads(),
		RandPageReads: a.RandPageReads(),
		PageWrites:    a.PageWrites(),
		TupleOps:      a.TupleOps(),
	}
}

// Sub returns the work done between an earlier snapshot and this one.
func (s AccountSnapshot) Sub(earlier AccountSnapshot) AccountSnapshot {
	return AccountSnapshot{
		SeqPageReads:  s.SeqPageReads - earlier.SeqPageReads,
		RandPageReads: s.RandPageReads - earlier.RandPageReads,
		PageWrites:    s.PageWrites - earlier.PageWrites,
		TupleOps:      s.TupleOps - earlier.TupleOps,
	}
}

// String summarizes the tally.
func (a *Accountant) String() string {
	return fmt.Sprintf("seq=%d rand=%d write=%d tuples=%d",
		a.SeqPageReads(), a.RandPageReads(), a.PageWrites(), a.TupleOps())
}

// Table is a heap file: fixed-width rows packed into fixed-capacity pages
// in insertion order. The rows live in one flat, pointer-free []int64, row
// by row, so the row at position pos (0, 1, … in insertion order) is
// values[pos*width : pos*width+width], and page p holds positions
// p·rowsPerPage up to the next page's first. A reader holds positions, not
// rows, and reads a value by that one index.
type Table struct {
	name        string
	width       int
	rowsPerPage int
	nrows       int
	values      []int64
}

// NewTable creates a heap file for records of width values and recordBytes
// bytes, holding rows — width values each, row after row — which it adopts:
// the caller must not write into them afterwards.
func NewTable(name string, width, recordBytes int, rows []int64) *Table {
	rpp := PageBytes / recordBytes
	if rpp < 1 {
		rpp = 1
	}
	t := &Table{name: name, width: width, rowsPerPage: rpp, values: rows}
	if width > 0 {
		t.nrows = len(rows) / width
	}
	return t
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Width returns the number of values in a row.
func (t *Table) Width() int { return t.width }

// Append stores a copy of a row of Width values and returns its RID.
func (t *Table) Append(r Row) RID {
	if len(r) != t.width {
		panic(fmt.Sprintf("storage: row of %d values appended to table %q of width %d", len(r), t.name, t.width))
	}
	t.values = append(t.values, r...)
	t.nrows++
	return t.RID(t.nrows - 1)
}

// NumRows returns the number of stored rows.
func (t *Table) NumRows() int { return t.nrows }

// NumPages returns the number of pages in the heap file.
func (t *Table) NumPages() int { return (t.nrows + t.rowsPerPage - 1) / t.rowsPerPage }

// Values returns the stored rows, flat and capacity-clipped: the row at
// position pos is Values()[pos*Width() : (pos+1)*Width()]. They belong to
// the table and must not be modified.
func (t *Table) Values() []int64 { return t.values[:len(t.values):len(t.values)] }

// Row returns a view of the row at position pos, capacity-clipped. It
// belongs to the table and must not be modified.
func (t *Table) Row(pos int) Row {
	return t.values[pos*t.width : (pos+1)*t.width : (pos+1)*t.width]
}

// PageRows returns the positions page p holds, lo up to hi exclusive,
// without charging I/O: a sequential reader walks p = 0 … NumPages()-1.
func (t *Table) PageRows(p int) (lo, hi int) {
	lo = p * t.rowsPerPage
	return lo, min(lo+t.rowsPerPage, t.nrows)
}

// RID returns the RID of the row at position pos.
func (t *Table) RID(pos int) RID {
	return RID{Page: int32(pos / t.rowsPerPage), Slot: int32(pos % t.rowsPerPage)}
}

// Pos returns the position of the row at rid; a rid that names no stored
// row is an error.
func (t *Table) Pos(rid RID) (int, error) {
	pos := int(rid.Page)*t.rowsPerPage + int(rid.Slot)
	if rid.Page < 0 || rid.Slot < 0 || int(rid.Slot) >= t.rowsPerPage || pos >= t.nrows {
		return 0, fmt.Errorf("storage: invalid rid %v in table %q", rid, t.name)
	}
	return pos, nil
}

// Get fetches the record at rid without charging I/O; use Fetch for
// accounted access. An invalid rid is an error.
func (t *Table) Get(rid RID) (Row, error) {
	pos, err := t.Pos(rid)
	if err != nil {
		return nil, err
	}
	return t.Row(pos), nil
}

// Fetch returns the position of the record at rid, charging one random
// page read to the accountant, then lets the fault injector fail the read
// (a nil injector injects nothing). This models unclustered index access:
// one I/O per qualifying record, the paper's B-tree-scan cost model.
func (t *Table) Fetch(rid RID, acc *Accountant, f *Injector) (int, error) {
	pos, err := t.Pos(rid)
	if err != nil {
		return 0, err
	}
	acc.ReadRand(1)
	if err := f.PageRead(t.name, rid.Page, acc); err != nil {
		return 0, err
	}
	return pos, nil
}

// Store is a named collection of tables, the simulated database instance.
type Store struct {
	tables map[string]*Table
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{tables: make(map[string]*Table)}
}

// AddTable registers a table, replacing any previous table of the same
// name (data loads are idempotent in tests).
func (s *Store) AddTable(t *Table) {
	s.tables[t.Name()] = t
}

// Table looks up a table by name.
func (s *Store) Table(name string) (*Table, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return t, nil
}
