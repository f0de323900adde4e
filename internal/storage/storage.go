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
// paper's cost model reasons about. Rows are immutable once stored: a
// table hands out its own rows, and no reader may modify them.
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

// Table is a heap file: rows packed into fixed-capacity pages in insertion
// order.
type Table struct {
	name        string
	rowsPerPage int
	pages       [][]Row
	nrows       int
}

// NewTable creates an empty heap file for records of the given width.
func NewTable(name string, recordBytes int) *Table {
	rpp := PageBytes / recordBytes
	if rpp < 1 {
		rpp = 1
	}
	return &Table{name: name, rowsPerPage: rpp}
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Append stores a row and returns its RID.
func (t *Table) Append(r Row) RID {
	if len(t.pages) == 0 || len(t.pages[len(t.pages)-1]) == t.rowsPerPage {
		t.pages = append(t.pages, make([]Row, 0, t.rowsPerPage))
	}
	p := len(t.pages) - 1
	t.pages[p] = append(t.pages[p], r)
	t.nrows++
	return RID{Page: int32(p), Slot: int32(len(t.pages[p]) - 1)}
}

// NumRows returns the number of stored rows.
func (t *Table) NumRows() int { return t.nrows }

// NumPages returns the number of pages in the heap file.
func (t *Table) NumPages() int { return len(t.pages) }

// Page returns the rows of page p in slot order, without charging I/O: a
// page is finished when its slots are, so a sequential reader walks
// p = 0 … NumPages()-1 by length alone. The slice and its rows belong to
// the table and must not be modified.
func (t *Table) Page(p int) []Row { return t.pages[p] }

// Get fetches the record at rid without charging I/O; use Fetch for
// accounted access. An invalid rid is an error.
func (t *Table) Get(rid RID) (Row, error) {
	if int(rid.Page) >= len(t.pages) || int(rid.Slot) >= len(t.pages[rid.Page]) {
		return nil, fmt.Errorf("storage: invalid rid %v in table %q", rid, t.name)
	}
	return t.pages[rid.Page][rid.Slot], nil
}

// Fetch retrieves the record at rid, charging one random page read to the
// accountant, then lets the fault injector fail the read (a nil injector
// injects nothing). This models unclustered index access: one I/O per
// qualifying record, the paper's B-tree-scan cost model.
func (t *Table) Fetch(rid RID, acc *Accountant, f *Injector) (Row, error) {
	row, err := t.Get(rid)
	if err != nil {
		return nil, err
	}
	acc.ReadRand(1)
	if err := f.PageRead(t.name, rid.Page, acc); err != nil {
		return nil, err
	}
	return row, nil
}

// Scan iterates all rows in storage order, charging one sequential page
// read per page as it advances. The yield function returns false to stop
// early (the remaining pages are then not charged).
func (t *Table) Scan(acc *Accountant, yield func(Row) bool) {
	for _, page := range t.pages {
		acc.ReadSeq(1)
		for _, row := range page {
			if !yield(row) {
				return
			}
		}
	}
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
