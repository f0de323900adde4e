package exec

import (
	"fmt"
	"math/bits"
	"slices"

	"dynplan/internal/bindings"
	"dynplan/internal/btree"
	"dynplan/internal/physical"
	"dynplan/internal/qerr"
	"dynplan/internal/storage"
)

// buildHashJoin compiles Hash-Join: the left input is the build side (the
// convention the optimizer's commutativity rule exploits to consider both
// build orders), the right input probes.
func (db *DB) buildHashJoin(n *physical.Node, b *bindings.Bindings) (Iterator, Schema, error) {
	left, ls, err := db.Build(n.Children[0], b)
	if err != nil {
		return nil, nil, err
	}
	buildRows := db.startRows(n.Children[0], b, db.sc) // sized to the build side's prediction
	right, rs, err := db.Build(n.Children[1], b)
	if err != nil {
		return nil, nil, err
	}
	lcol, err := ls.Index(n.LeftAttr)
	if err != nil {
		return nil, nil, err
	}
	rcol, err := rs.Index(n.RightAttr)
	if err != nil {
		return nil, nil, err
	}
	return carve(&db.sc.f.hashes, hashJoinIter{
		db: db, sc: db.sc, build: left, probe: cursor{src: right, sc: db.sc},
		buildCol: lcol, probeCol: rcol,
		buildNode:     n.Children[0],
		buildSchema:   ls,
		buildRowBytes: n.Children[0].RowBytes,
		probeRowBytes: n.Children[1].RowBytes,
		memPages:      b.Memory,
		rows:          buildRows,
		out:           db.joinSlab(n),
	}), db.joinSchema(ls, rs), nil
}

// buildFits fails a build side that no longer fits after a memory-shrink
// event: the shrink revokes part of the grant the plan was promised, and
// the simulated spill (graceSpill) models a build that was *planned* not
// to fit, not one whose memory vanished mid-build.
func (it *hashJoinIter) buildFits() error {
	if scale := it.db.Faults.MemoryScale(); scale < 1 {
		if buildPages, avail := pagesOf(it.buildRowBytes, len(it.rows)), it.memPages*scale; buildPages > avail {
			return fmt.Errorf("exec: hash build of %.0f pages exceeds memory grant shrunk to %.1f pages: %w",
				buildPages, avail, qerr.ErrInsufficientMemory)
		}
	}
	return nil
}

// graceSpill accounts the Grace-partitioning I/O the cost model predicts
// when the build input does not fit in the memory available at run-time:
// both inputs are written to partition files and read back. The engine
// joins in memory regardless (the host has RAM to spare); the accountant
// records what a memory-constrained system would have done.
func (it *hashJoinIter) graceSpill() {
	if buildPages := pagesOf(it.buildRowBytes, len(it.rows)); buildPages > it.memPages {
		total := int64(buildPages + pagesOf(it.probeRowBytes, it.probeLen))
		it.db.Acc.Write(total)
		it.db.Acc.ReadSeq(total)
	}
}

// hashJoinIter is the serial hash join. The build side is a joinTable
// over the build rows in arrival order, so a probe row meets its matches
// in build-insertion order without a slice per key.
type hashJoinIter struct {
	db       *DB
	sc       *scratch // draws the build rows, the table and the probe vectors
	build    Iterator
	buildCol int
	probeCol int

	// buildNode and buildSchema identify the materialized build subtree
	// for the cardinality guard consulted once the build fully drains.
	buildNode   *physical.Node
	buildSchema Schema
	// buildRowBytes and probeRowBytes are the inputs' row widths and
	// memPages the grant the join was activated under.
	buildRowBytes int
	probeRowBytes int
	memPages      float64

	rows        []storage.Row
	table       joinTable
	buildClosed bool

	// probe reads the probe side; cur is the probe row being joined and
	// match its next build row (-1 when its matches are exhausted).
	probe    cursor
	cur      storage.Row
	match    int32
	probeLen int
	out      slab
	spilled  bool
	opened   bool
}

func (it *hashJoinIter) Open() error {
	it.buildClosed = false
	if err := it.build.Open(); err != nil {
		return err
	}
	rows, err := drain(it.build, it.rows[:0], it.sc)
	it.rows = rows
	it.db.Acc.Tuples(int64(len(rows)))
	if err != nil {
		return err
	}
	if err := it.build.Close(); err != nil {
		return err
	}
	it.buildClosed = true
	it.table.build(rows, it.buildCol, it.sc)
	// The build side is a materialization point: its true cardinality is
	// now known, so the guard can compare it against the predicted band
	// before the probe side spends any work. The rows are in arrival
	// order; guard temporaries never claim a sort order.
	if err := it.db.checkMat(it.buildNode, it.buildSchema, rows); err != nil {
		return err
	}
	if err := it.buildFits(); err != nil {
		return err
	}
	if err := it.probe.src.Open(); err != nil {
		return err
	}
	it.match = -1
	it.opened = true
	return nil
}

// NextBatch fills dst with joined rows, carved from the join's slab: the
// pending matches of the current probe row first, then probe row after
// probe row. One tuple charge per probe row and one per emitted row, as
// the per-row join charged.
func (it *hashJoinIter) NextBatch(dst []storage.Row) (int, error) {
	if !it.opened {
		return 0, fmt.Errorf("exec: Hash-Join next before open")
	}
	if err := it.db.checkCancel(); err != nil {
		return 0, err
	}
	n, probed := 0, 0
	var err error
	for n < len(dst) {
		if it.match >= 0 {
			dst[n] = it.out.concat(it.rows[it.match], it.cur)
			n++
			it.match = it.table.next[it.match]
			continue
		}
		var ok bool
		if it.cur, ok, err = it.probe.next(); !ok {
			if err == nil && !it.spilled {
				it.spilled = true
				it.graceSpill()
			}
			break
		}
		probed++
		it.probeLen++
		it.match = it.table.lookup(it.cur[it.probeCol])
	}
	it.db.Acc.Tuples(int64(probed + n))
	return n, err
}

// MemoryHighWater reports the build side's buffered bytes, the join's
// memory footprint (the probe side streams).
func (it *hashJoinIter) MemoryHighWater() int64 {
	return int64(len(it.rows)) * int64(it.buildRowBytes)
}

func (it *hashJoinIter) Close() error {
	it.rows, it.table = nil, joinTable{}
	it.probe.release()
	var buildErr error
	if !it.buildClosed {
		// Open failed mid-build (or was never reached); release the build
		// side too.
		buildErr = it.build.Close()
		it.buildClosed = true
	}
	probeErr := it.probe.src.Close()
	if buildErr != nil {
		return buildErr
	}
	return probeErr
}

// joinTable is a hash join's build side: an open-addressed table from
// key to the key's first build row, and each row's successor with the same
// key. Both live in one pointer-free []int32 — next (one entry per build
// row) followed by slots (a power of two, at least twice the build rows) —
// so building it takes no write barrier and the GC has nothing to scan. A
// slot holds a row index + 1, 0 meaning empty; a key's home slot is the top
// bits of its Fibonacci hash, and a collision probes linearly onward.
type joinTable struct {
	rows  []storage.Row
	col   int
	next  []int32 // next[i] is the row after i with the same key, or -1
	slots []int32
	shift uint // 64 − log2(len(slots))
}

// fibonacci is 2^64 divided by the golden ratio, rounded to odd: the
// multiplier of Fibonacci hashing, which spreads consecutive keys over the
// top bits of the product.
const fibonacci = 0x9E3779B97F4A7C15

// home returns the slot a key hashes to.
func (t *joinTable) home(k int64) uint64 { return uint64(k) * fibonacci >> t.shift }

// build indexes rows by column col in a buffer from sc, linked back to
// front, so every chain starts at its key's first row and runs in order.
func (t *joinTable) build(rows []storage.Row, col int, sc *scratch) {
	n := len(rows)
	logSlots := bits.Len(uint(max(2*n-1, 1)))
	buf := draw(sc, tableShelf, n+1<<logSlots)
	t.rows, t.col, t.shift = rows, col, uint(64-logSlots)
	t.next, t.slots = buf[:n:n], buf[n:]
	mask := uint64(len(t.slots) - 1)
	for i := n - 1; i >= 0; i-- {
		k := rows[i][col]
		s := t.home(k)
		for t.slots[s] != 0 && rows[t.slots[s]-1][col] != k {
			s = (s + 1) & mask
		}
		t.next[i] = t.slots[s] - 1 // -1 when the slot was empty
		t.slots[s] = int32(i + 1)
	}
}

// lookup returns the first build row with key k, or -1.
func (t *joinTable) lookup(k int64) int32 {
	mask := uint64(len(t.slots) - 1)
	for s := t.home(k); ; s = (s + 1) & mask {
		switch e := t.slots[s]; {
		case e == 0:
			return -1
		case t.rows[e-1][t.col] == k:
			return e - 1
		}
	}
}

// buildMergeJoin compiles Merge-Join over two sorted inputs.
func (db *DB) buildMergeJoin(n *physical.Node, b *bindings.Bindings) (Iterator, Schema, error) {
	left, ls, err := db.Build(n.Children[0], b)
	if err != nil {
		return nil, nil, err
	}
	right, rs, err := db.Build(n.Children[1], b)
	if err != nil {
		return nil, nil, err
	}
	lcol, err := ls.Index(n.LeftAttr)
	if err != nil {
		return nil, nil, err
	}
	rcol, err := rs.Index(n.RightAttr)
	if err != nil {
		return nil, nil, err
	}
	return carve(&db.sc.f.merges, mergeJoinIter{
		db:    db,
		left:  mergeInput{it: left, col: lcol, side: "left"},
		right: mergeInput{it: right, col: rcol, side: "right"},
		out:   db.joinSlab(n),
	}), db.joinSchema(ls, rs), nil
}

// mergeJoinIter implements the standard sorted-merge equi-join with
// duplicate handling: for each key present on both sides, the right
// group is buffered and the cross product with the left group emitted.
type mergeJoinIter struct {
	db          *DB
	left, right mergeInput

	group  []storage.Row // buffered right rows with the current key
	gpos   int
	curKey int64
	out    slab
	opened bool
}

// mergeInput is one sorted input of a merge join and its current row. It
// reads one row per call: a merge join stops reading one input as soon as
// the other ends, so a wider vector would fetch — and charge — rows the
// join never looks at.
type mergeInput struct {
	it   Iterator
	col  int
	side string
	one  [1]storage.Row // the one-row input vector; one[0] is the current row
	ok   bool           // one[0] is valid: the input has not ended
	prev int64
	seen bool
}

func (in *mergeInput) row() storage.Row { return in.one[0] }

func (in *mergeInput) key() int64 { return in.one[0][in.col] }

// advance reads the input's next row, checking that keys do not descend.
func (in *mergeInput) advance(acc *storage.Accountant) error {
	n, err := in.it.NextBatch(in.one[:])
	if err != nil {
		return err
	}
	if in.ok = n == 1; in.ok {
		k := in.key()
		if in.seen && k < in.prev {
			return fmt.Errorf("exec: Merge-Join %s input not sorted (%d after %d)", in.side, k, in.prev)
		}
		in.prev, in.seen = k, true
		acc.Tuples(1)
	}
	return nil
}

func (it *mergeJoinIter) Open() error {
	if err := it.left.it.Open(); err != nil {
		return err
	}
	if err := it.right.it.Open(); err != nil {
		return err
	}
	if err := it.left.advance(it.db.Acc); err != nil {
		return err
	}
	if err := it.right.advance(it.db.Acc); err != nil {
		return err
	}
	it.opened = true
	return nil
}

func (it *mergeJoinIter) NextBatch(dst []storage.Row) (int, error) {
	if !it.opened {
		return 0, fmt.Errorf("exec: Merge-Join next before open")
	}
	if err := it.db.checkCancel(); err != nil {
		return 0, err
	}
	n, err := it.merge(dst)
	if n > 0 {
		it.db.Acc.Tuples(int64(n))
	}
	return n, err
}

// merge runs the merge state machine until dst is full or the join ends,
// returning how many rows it wrote.
func (it *mergeJoinIter) merge(dst []storage.Row) (n int, err error) {
	l, r, acc := &it.left, &it.right, it.db.Acc
	for n < len(dst) {
		// Emit pending pairs of the current key group.
		if it.gpos < len(it.group) {
			dst[n] = it.out.concat(l.row(), it.group[it.gpos])
			n++
			it.gpos++
			continue
		}
		if len(it.group) > 0 {
			// Finished pairing the current left row with the group; move
			// to the next left row and re-pair if its key still matches.
			if err := l.advance(acc); err != nil {
				return n, err
			}
			if l.ok && l.key() == it.curKey {
				it.gpos = 0
				continue
			}
			it.group = it.group[:0]
		}
		if !l.ok || !r.ok {
			return n, nil
		}
		switch lk, rk := l.key(), r.key(); {
		case lk < rk:
			err = l.advance(acc)
		case lk > rk:
			err = r.advance(acc)
		default:
			// Buffer the right group for this key.
			it.curKey = lk
			it.group = it.group[:0]
			for err == nil && r.ok && r.key() == it.curKey {
				it.group = append(it.group, r.row())
				err = r.advance(acc)
			}
			it.gpos = 0
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func (it *mergeJoinIter) Close() error {
	err1 := it.left.it.Close()
	err2 := it.right.it.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// buildIndexJoin compiles Index-Join: for each outer row, probe the inner
// relation's B-tree on the join attribute, fetch the matches, and apply
// the inner relation's residual selection, if any.
func (db *DB) buildIndexJoin(n *physical.Node, b *bindings.Bindings) (Iterator, Schema, error) {
	outer, os, err := db.Build(n.Children[0], b)
	if err != nil {
		return nil, nil, err
	}
	innerSchema, err := db.relSchema(n.Rel)
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
	ocol, err := os.Index(n.LeftAttr)
	if err != nil {
		return nil, nil, err
	}
	it := carve(&db.sc.f.indexes, indexJoinIter{
		db: db, outer: cursor{src: outer, sc: db.sc}, table: table, tree: tree, ocol: ocol, residCol: -1,
		out: db.joinSlab(n),
	})
	if n.SelAttr != "" {
		col, limit, err := db.predicate(n.SelAttr, n.Var, n.FixedSel, innerSchema, b)
		if err != nil {
			return nil, nil, err
		}
		it.residCol, it.residLimit = col, limit
	}
	return it, db.joinSchema(os, innerSchema), nil
}

type indexJoinIter struct {
	db         *DB
	table      *storage.Table
	tree       *btree.Tree
	ocol       int
	residCol   int
	residLimit float64

	// outer reads the outer side; cur is the outer row being joined and
	// rids its index matches, read into one reused buffer.
	outer  cursor
	cur    storage.Row
	rids   []storage.RID
	ridPos int
	out    slab
	opened bool
}

func (it *indexJoinIter) Open() error {
	if err := it.outer.src.Open(); err != nil {
		return err
	}
	it.rids, it.ridPos = it.rids[:0], 0
	it.opened = true
	return nil
}

// NextBatch fills dst with joined rows, carved from the join's slab. One
// tuple charge per outer row and one per fetched inner record, qualifying
// or not, as the per-row join charged.
func (it *indexJoinIter) NextBatch(dst []storage.Row) (int, error) {
	if !it.opened {
		return 0, fmt.Errorf("exec: Index-Join next before open")
	}
	if err := it.db.checkCancel(); err != nil {
		return 0, err
	}
	n, work := 0, 0
	var err error
	for n < len(dst) {
		if it.ridPos < len(it.rids) {
			var inner storage.Row
			if inner, err = it.table.Fetch(it.rids[it.ridPos], it.db.Acc, it.db.Faults); err != nil {
				break
			}
			it.ridPos++
			work++
			if it.residCol >= 0 && float64(inner[it.residCol]) >= it.residLimit {
				continue
			}
			dst[n] = it.out.concat(it.cur, inner)
			n++
			continue
		}
		var ok bool
		if it.cur, ok, err = it.outer.next(); !ok {
			break
		}
		work++
		it.rids, it.ridPos = it.tree.AppendRange(it.rids[:0], it.cur[it.ocol], it.cur[it.ocol]), 0
	}
	it.db.Acc.Tuples(int64(work))
	return n, err
}

func (it *indexJoinIter) Close() error {
	it.outer.release()
	it.rids = nil
	return it.outer.src.Close()
}

// buildSort compiles the Sort enforcer: drain, sort by the key column,
// and charge external-sort I/O when the input exceeds the run-time memory.
func (db *DB) buildSort(n *physical.Node, b *bindings.Bindings) (Iterator, Schema, error) {
	child, schema, err := db.Build(n.Children[0], b)
	if err != nil {
		return nil, nil, err
	}
	col, err := schema.Index(n.Attr)
	if err != nil {
		return nil, nil, err
	}
	sc := db.sc
	if n == db.sc.f.root {
		sc = nil // a root Sort's buffer is the result
	}
	return carve(&db.sc.f.sorts, sortIter{
		db: db, sc: sc, child: child, col: col,
		childNode:   n.Children[0],
		childSchema: schema,
		rowBytes:    n.Children[0].RowBytes,
		memPages:    b.Memory,
		rows:        db.startRows(n.Children[0], b, sc), // sized to the input's prediction
	}), schema, nil
}

// sortIter is the Sort enforcer. It buffers its whole input and orders
// it stably by one column with sortRows.
type sortIter struct {
	db    *DB
	sc    *scratch // draws the buffer
	child Iterator
	col   int
	// childNode and childSchema identify the materialized input subtree
	// for the cardinality guard consulted once the input fully drains.
	childNode   *physical.Node
	childSchema Schema
	rowBytes    int
	memPages    float64

	childClosed bool
	rows        []storage.Row
	maxRows     int
	pos         int
}

// MemoryHighWater reports the largest workspace the sort buffered.
func (it *sortIter) MemoryHighWater() int64 {
	return int64(it.maxRows) * int64(it.rowBytes)
}

func (it *sortIter) Open() error {
	it.childClosed = false
	if err := it.child.Open(); err != nil {
		return err
	}
	rows, err := drain(it.child, it.rows[:0], it.sc)
	it.rows, it.pos = rows, 0
	it.db.Acc.Tuples(int64(len(rows)))
	if err != nil {
		return err
	}
	if err := it.child.Close(); err != nil {
		return err
	}
	it.childClosed = true
	// The sort input is a materialization point: the full input is
	// buffered, so the guard sees the true cardinality before the sort
	// (and any external-sort I/O) is paid for. The rows are in drain
	// order; guard temporaries never claim a sort order.
	if err := it.db.checkMat(it.childNode, it.childSchema, rows); err != nil {
		return err
	}
	if len(rows) > it.maxRows {
		it.maxRows = len(rows)
	}
	sortRows(rows, it.col, it.db.sc)
	// Charge external-sort I/O when the input would not fit in memory:
	// run generation plus merge passes, write + read each (mirroring the
	// cost model's formula).
	pages := pagesOf(it.rowBytes, len(rows))
	mem := it.memPages
	if mem < 3 {
		mem = 3
	}
	// A shrink event that leaves fewer pages than a sort's minimum
	// working set (three pages: two run inputs plus one output) makes the
	// sort infeasible rather than merely slower.
	if scale := it.db.Faults.MemoryScale(); scale < 1 {
		if avail := it.memPages * scale; avail < 3 && pages > avail {
			return fmt.Errorf("exec: sort of %.0f pages needs at least 3 memory pages, grant shrunk to %.1f: %w",
				pages, avail, qerr.ErrInsufficientMemory)
		}
		mem = it.memPages * scale
		if mem < 3 {
			mem = 3
		}
	}
	if pages > mem {
		runs := (pages + mem - 1) / mem
		fanIn := mem - 1
		passes := 0.0
		for r := runs; r > 1; r = (r + fanIn - 1) / fanIn {
			passes++
		}
		if passes < 1 {
			passes = 1
		}
		total := int64(pages * passes)
		it.db.Acc.Write(total)
		it.db.Acc.ReadSeq(total)
	}
	return nil
}

// NextBatch hands out the sorted rows.
func (it *sortIter) NextBatch(dst []storage.Row) (int, error) {
	if it.pos >= len(it.rows) {
		return 0, nil
	}
	n := copy(dst, it.rows[it.pos:])
	it.pos += n
	return n, nil
}

func (it *sortIter) Close() error {
	it.rows = nil
	if !it.childClosed {
		it.childClosed = true
		return it.child.Close()
	}
	return nil
}

// sortKey is one row's sort key and its position in the input.
type sortKey struct {
	key int64
	pos int32
}

// sortRows orders rows by column col, stably. It sorts pointer-free
// (key, position) pairs from sc — by key, then position, which is the
// stable order — and then permutes the rows into that order by following
// its cycles, so a row header moves once instead of at every swap of an
// in-place stable sort, and the sort itself takes no write barrier.
func sortRows(rows []storage.Row, col int, sc *scratch) {
	if len(rows) < 2 {
		return
	}
	keys := draw(sc, keyShelf, len(rows))
	for i, r := range rows {
		keys[i] = sortKey{r[col], int32(i)}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		return int(a.pos - b.pos)
	})
	// rows[i] takes the row at keys[i].pos. Walk each cycle of that
	// permutation once, marking a visited position with -1.
	for start := range keys {
		if keys[start].pos < 0 {
			continue
		}
		first := rows[start]
		i := start
		for {
			from := int(keys[i].pos)
			keys[i].pos = -1
			if from == start {
				rows[i] = first
				break
			}
			rows[i] = rows[from]
			i = from
		}
	}
}
