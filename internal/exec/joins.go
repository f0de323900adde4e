package exec

import (
	"cmp"
	"fmt"
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
	buildRows := db.startRows(n.Children[0], b) // sized to the build side's prediction
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
	return carve(&db.f.hashes, hashJoinIter{
		db: db, build: left, probe: cursor{src: right},
		buildCol: lcol, probeCol: rcol,
		buildNode:     n.Children[0],
		buildSchema:   ls,
		buildRowBytes: n.Children[0].RowBytes,
		probeRowBytes: n.Children[1].RowBytes,
		memPages:      b.Memory,
		rows:          buildRows,
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

// hashJoinIter is the serial hash join. The build side is one flat table:
// the build rows in arrival order, the first row of every key in head, and
// each row's successor with the same key in next — so a probe row meets
// its matches in build-insertion order without a slice per key.
type hashJoinIter struct {
	db       *DB
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
	head        map[int64]int32
	next        []int32
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
	rows, err := drain(it.build, it.rows[:0])
	it.rows = rows
	it.db.Acc.Tuples(int64(len(rows)))
	if err != nil {
		return err
	}
	if err := it.build.Close(); err != nil {
		return err
	}
	it.buildClosed = true
	// Link the rows back to front, so every chain starts at its key's
	// first row and runs in insertion order.
	it.head = make(map[int64]int32, len(rows))
	it.next = slices.Grow(it.next[:0], len(rows))[:len(rows)]
	for i := len(rows) - 1; i >= 0; i-- {
		k := rows[i][it.buildCol]
		if h, ok := it.head[k]; ok {
			it.next[i] = h
		} else {
			it.next[i] = -1
		}
		it.head[k] = int32(i)
	}
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
			it.match = it.next[it.match]
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
		if h, ok := it.head[it.cur[it.probeCol]]; ok {
			it.match = h
		}
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
	it.rows, it.head, it.next = nil, nil, nil
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
	return carve(&db.f.merges, mergeJoinIter{
		db:    db,
		left:  mergeInput{it: left, col: lcol, side: "left"},
		right: mergeInput{it: right, col: rcol, side: "right"},
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
	it := carve(&db.f.indexes, indexJoinIter{
		db: db, outer: cursor{src: outer}, table: table, tree: tree, ocol: ocol, residCol: -1,
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

// appendRID collects one index match of the current outer row.
func (it *indexJoinIter) appendRID(_ int64, rid storage.RID) bool {
	it.rids = append(it.rids, rid)
	return true
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
		it.rids, it.ridPos = it.rids[:0], 0
		it.tree.Range(it.cur[it.ocol], it.cur[it.ocol], it.appendRID)
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
	return carve(&db.f.sorts, sortIter{
		db: db, child: child, col: col,
		childNode:   n.Children[0],
		childSchema: schema,
		rowBytes:    n.Children[0].RowBytes,
		memPages:    b.Memory,
		rows:        db.startRows(n.Children[0], b), // sized to the input's prediction
	}), schema, nil
}

type sortIter struct {
	db    *DB
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
	rows, err := drain(it.child, it.rows[:0])
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
	slices.SortStableFunc(rows, func(a, b storage.Row) int { return cmp.Compare(a[it.col], b[it.col]) })
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
