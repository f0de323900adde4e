package exec

import (
	"fmt"
	"math"
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
func (db *DB) buildHashJoin(n *physical.Node, b *bindings.Bindings) (Iterator, error) {
	left, ls, err := db.Build(n.Children[0], b)
	if err != nil {
		return nil, err
	}
	buildRows := db.startRows(n.Children[0], len(left.tabs), b) // sized to the build side's prediction
	right, rs, err := db.Build(n.Children[1], b)
	if err != nil {
		return nil, err
	}
	lcol, err := ls.Index(n.LeftAttr)
	if err != nil {
		return nil, err
	}
	rcol, err := rs.Index(n.RightAttr)
	if err != nil {
		return nil, err
	}
	kb, kp := len(left.tabs), len(right.tabs)
	return carve(&db.sc.f.hashes, hashJoinIter{
		db: db, sc: db.sc, build: left, probe: cursor{src: right, sc: db.sc, k: kp},
		buildKey: columnAt(left.tabs, lcol), probeKey: columnAt(right.tabs, rcol),
		kb: kb, k: kb + kp,
		buildNode:     n.Children[0],
		buildSchema:   ls,
		buildTabs:     left.tabs,
		buildRowBytes: n.Children[0].RowBytes,
		probeRowBytes: n.Children[1].RowBytes,
		memPages:      b.Memory,
		rows:          buildRows,
	}), nil
}

// buildFits fails a build side that no longer fits after a memory-shrink
// event: the shrink revokes part of the grant the plan was promised, and
// the simulated spill (graceSpill) models a build that was *planned* not
// to fit, not one whose memory vanished mid-build.
func (it *hashJoinIter) buildFits() error {
	if scale := it.db.Faults.MemoryScale(); scale < 1 {
		if buildPages, avail := pagesOf(it.buildRowBytes, len(it.keys)), it.memPages*scale; buildPages > avail {
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
	if buildPages := pagesOf(it.buildRowBytes, len(it.keys)); buildPages > it.memPages {
		total := int64(buildPages + pagesOf(it.probeRowBytes, it.probeLen))
		it.db.Acc.Write(total)
		it.db.Acc.ReadSeq(total)
	}
}

// hashJoinIter is the serial hash join. The build side is its tuples in
// arrival order, their keys copied into one pointer-free column, and a
// joinTable over the keys, so a probe tuple meets its matches in
// build-insertion order without a slice per key.
type hashJoinIter struct {
	db       *DB
	sc       *scratch // draws the build tuples and keys, the table and the probe vectors
	build    Iterator
	buildKey column
	probeKey column
	kb, k    int // positions per build tuple and per output tuple

	// buildNode, buildSchema and buildTabs identify the materialized build
	// subtree for the cardinality guard consulted once the build fully
	// drains.
	buildNode   *physical.Node
	buildSchema Schema
	buildTabs   []*storage.Table
	// buildRowBytes and probeRowBytes are the inputs' row widths and
	// memPages the grant the join was activated under.
	buildRowBytes int
	probeRowBytes int
	memPages      float64

	rows        []int32 // the build tuples
	keys        []int64 // keys[i] is build tuple i's key
	table       joinTable
	buildClosed bool

	// probe reads the probe side, its current tuple the one being joined,
	// and match is that tuple's next build tuple (-1 when its matches are
	// exhausted).
	probe    cursor
	match    int32
	probeLen int
	spilled  bool
	opened   bool
}

func (it *hashJoinIter) Open() error {
	it.buildClosed = false
	if err := it.build.Open(); err != nil {
		return err
	}
	rows, err := drain(it.build, it.kb, it.rows[:0], it.sc)
	it.rows = rows
	it.keys = draw(it.sc, keyShelf, len(rows)/it.kb)
	it.db.Acc.Tuples(int64(len(it.keys)))
	if err != nil {
		return err
	}
	if err := it.build.Close(); err != nil {
		return err
	}
	it.buildClosed = true
	for i := range it.keys {
		it.keys[i] = it.buildKey.at(rows[i*it.kb:])
	}
	it.table.build(it.keys, it.sc)
	// The build side is a materialization point: its true cardinality is
	// now known, so the guard can compare it against the predicted band
	// before the probe side spends any work. The tuples are in arrival
	// order; guard temporaries never claim a sort order.
	if err := it.db.checkMat(it.buildNode, it.buildSchema, rows, it.buildTabs); err != nil {
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

// NextBatch fills dst with joined tuples, a build tuple's positions then
// the probe tuple's: the pending matches of the current probe tuple
// first, then probe tuple after probe tuple. One tuple charge per probe
// tuple and one per emitted tuple, as the per-row join charged.
func (it *hashJoinIter) NextBatch(dst []int32) (int, error) {
	if !it.opened {
		return 0, fmt.Errorf("exec: Hash-Join next before open")
	}
	if err := it.db.checkCancel(); err != nil {
		return 0, err
	}
	k, kb, rows, next := it.k, it.kb, it.rows, it.table.next
	n, probed := 0, 0
	var err error
	for m := len(dst) / k; n < m; {
		if it.match >= 0 {
			out, b := dst[n*k:(n+1)*k], int(it.match)*kb
			for j, p := range rows[b : b+kb] {
				out[j] = p
			}
			for j, p := range it.probe.cur() {
				out[kb+j] = p
			}
			n++
			it.match = next[it.match]
			continue
		}
		var ok bool
		if ok, err = it.probe.next(); !ok {
			if err == nil && !it.spilled {
				it.spilled = true
				it.graceSpill()
			}
			break
		}
		probed++
		it.probeLen++
		it.match = it.table.lookup(it.probeKey.at(it.probe.cur()))
	}
	it.db.Acc.Tuples(int64(probed + n))
	return n, err
}

// MemoryHighWater reports the build side's buffered bytes, the join's
// memory footprint (the probe side streams).
func (it *hashJoinIter) MemoryHighWater() int64 {
	return int64(len(it.keys)) * int64(it.buildRowBytes)
}

func (it *hashJoinIter) Close() error {
	it.rows, it.keys, it.table = nil, nil, joinTable{}
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
// key to the key's first build tuple, and each tuple's successor with the
// same key. Both live in one pointer-free []int32 — next (one entry per
// build tuple) followed by slots (a power of two, at least twice the build
// tuples) — over the build keys, one []int64: building and probing it
// follow no pointer and take no write barrier, and the GC has nothing to
// scan. A slot holds a tuple index + 1, 0 meaning empty; a key's home slot
// is the top bits of its Fibonacci hash, and a collision probes linearly
// onward.
type joinTable struct {
	keys  []int64
	next  []int32 // next[i] is the tuple after i with the same key, or -1
	slots []int32
	shift uint // 64 − log2(len(slots))
}

// fibonacci is 2^64 divided by the golden ratio, rounded to odd: the
// multiplier of Fibonacci hashing, which spreads consecutive keys over the
// top bits of the product.
const fibonacci = 0x9E3779B97F4A7C15

// home returns the slot a key hashes to.
func (t *joinTable) home(k int64) uint64 { return uint64(k) * fibonacci >> t.shift }

// build indexes keys in a buffer from sc, linked back to front, so every
// chain starts at its key's first tuple and runs in order.
func (t *joinTable) build(keys []int64, sc *scratch) {
	n := len(keys)
	logSlots := bits.Len(uint(max(2*n-1, 1)))
	buf := draw(sc, intShelf, n+1<<logSlots)
	t.keys, t.shift = keys, uint(64-logSlots)
	t.next, t.slots = buf[:n:n], buf[n:]
	clear(t.slots)
	mask := uint64(len(t.slots) - 1)
	for i := n - 1; i >= 0; i-- {
		k := keys[i]
		s := t.home(k)
		for t.slots[s] != 0 && keys[t.slots[s]-1] != k {
			s = (s + 1) & mask
		}
		t.next[i] = t.slots[s] - 1 // -1 when the slot was empty
		t.slots[s] = int32(i + 1)
	}
}

// lookup returns the first build tuple with key k, or -1.
func (t *joinTable) lookup(k int64) int32 {
	mask := uint64(len(t.slots) - 1)
	for s := t.home(k); ; s = (s + 1) & mask {
		switch e := t.slots[s]; {
		case e == 0:
			return -1
		case t.keys[e-1] == k:
			return e - 1
		}
	}
}

// buildMergeJoin compiles Merge-Join over two sorted inputs.
func (db *DB) buildMergeJoin(n *physical.Node, b *bindings.Bindings) (Iterator, error) {
	left, ls, err := db.Build(n.Children[0], b)
	if err != nil {
		return nil, err
	}
	right, rs, err := db.Build(n.Children[1], b)
	if err != nil {
		return nil, err
	}
	lcol, err := ls.Index(n.LeftAttr)
	if err != nil {
		return nil, err
	}
	rcol, err := rs.Index(n.RightAttr)
	if err != nil {
		return nil, err
	}
	input := func(in *opIter, col int, side string) mergeInput {
		k := len(in.tabs)
		return mergeInput{it: in, key: columnAt(in.tabs, col), side: side, one: draw(db.sc, intShelf, k)}
	}
	return carve(&db.sc.f.merges, mergeJoinIter{
		db:    db,
		left:  input(left, lcol, "left"),
		right: input(right, rcol, "right"),
	}), nil
}

// mergeJoinIter implements the standard sorted-merge equi-join with
// duplicate handling: for each key present on both sides, the right
// group is buffered and the cross product with the left group emitted.
type mergeJoinIter struct {
	db          *DB
	left, right mergeInput

	group  []int32 // buffered right tuples with the current key
	gpos   int     // the next of them to pair, in positions
	curKey int64
	opened bool
}

// mergeInput is one sorted input of a merge join and its current tuple.
// It reads one tuple per call: a merge join stops reading one input as
// soon as the other ends, so a wider vector would fetch — and charge —
// rows the join never looks at.
type mergeInput struct {
	it   Iterator
	key  column
	side string
	one  []int32 // the one-tuple input vector: the current tuple
	ok   bool    // one is valid: the input has not ended
	prev int64
	seen bool
}

func (in *mergeInput) at() int64 { return in.key.at(in.one) }

// advance reads the input's next tuple, checking that keys do not
// descend.
func (in *mergeInput) advance(acc *storage.Accountant) error {
	n, err := in.it.NextBatch(in.one)
	if err != nil {
		return err
	}
	if in.ok = n == 1; in.ok {
		k := in.at()
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

func (it *mergeJoinIter) NextBatch(dst []int32) (int, error) {
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
// returning how many tuples it wrote: the left tuple's positions, then
// the right's.
func (it *mergeJoinIter) merge(dst []int32) (n int, err error) {
	l, r, acc := &it.left, &it.right, it.db.Acc
	kl, kr := len(l.one), len(r.one)
	for m := len(dst) / (kl + kr); n < m; {
		// Emit pending pairs of the current key group.
		if it.gpos < len(it.group) {
			out := dst[n*(kl+kr) : (n+1)*(kl+kr)]
			copy(out[copy(out, l.one):], it.group[it.gpos:it.gpos+kr])
			n++
			it.gpos += kr
			continue
		}
		if len(it.group) > 0 {
			// Finished pairing the current left tuple with the group; move
			// to the next left tuple and re-pair if its key still matches.
			if err := l.advance(acc); err != nil {
				return n, err
			}
			if l.ok && l.at() == it.curKey {
				it.gpos = 0
				continue
			}
			it.group = it.group[:0]
		}
		if !l.ok || !r.ok {
			return n, nil
		}
		switch lk, rk := l.at(), r.at(); {
		case lk < rk:
			err = l.advance(acc)
		case lk > rk:
			err = r.advance(acc)
		default:
			// Buffer the right group for this key.
			it.curKey = lk
			it.group = it.group[:0]
			for err == nil && r.ok && r.at() == it.curKey {
				it.group = append(it.group, r.one...)
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

// buildIndexJoin compiles Index-Join: for each outer tuple, probe the
// inner relation's B-tree on the join attribute, fetch the matches, and
// apply the inner relation's residual selection, if any.
func (db *DB) buildIndexJoin(n *physical.Node, b *bindings.Bindings) (Iterator, error) {
	outer, os, err := db.Build(n.Children[0], b)
	if err != nil {
		return nil, err
	}
	innerSchema, err := db.relSchema(n.Rel)
	if err != nil {
		return nil, err
	}
	table, err := db.Store.Table(n.Rel)
	if err != nil {
		return nil, err
	}
	tree, err := db.index(n.Rel, n.Attr)
	if err != nil {
		return nil, err
	}
	ocol, err := os.Index(n.LeftAttr)
	if err != nil {
		return nil, err
	}
	k := len(outer.tabs) + 1
	it := carve(&db.sc.f.indexes, indexJoinIter{
		db: db, outer: cursor{src: outer, sc: db.sc, k: k - 1}, table: table, tree: tree,
		outerKey: columnAt(outer.tabs, ocol), k: k,
	})
	if n.SelAttr != "" {
		col, limit, err := db.predicate(n.SelAttr, n.Var, n.FixedSel, innerSchema, b)
		if err != nil {
			return nil, err
		}
		// The residual reads the inner row through the output tuple's last
		// position.
		it.resid = column{vals: table.Values(), slot: k - 1, width: table.Width(), col: col}
		it.residual, it.residLimit = true, limit
	}
	db.source(table, innerSchema)
	return it, nil
}

type indexJoinIter struct {
	db         *DB
	table      *storage.Table
	tree       *btree.Tree
	outerKey   column
	k          int // positions per output tuple: the outer's, then the inner row's
	residual   bool
	resid      column // the inner relation's residual selection, if residual
	residLimit float64

	// outer reads the outer side, its current tuple the one being joined,
	// and rids are that tuple's index matches, read into one reused buffer.
	outer  cursor
	rids   []storage.RID
	ridPos int
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

// NextBatch fills dst with joined tuples. One tuple charge per outer
// tuple and one per fetched inner record, qualifying or not, as the
// per-row join charged.
func (it *indexJoinIter) NextBatch(dst []int32) (int, error) {
	if !it.opened {
		return 0, fmt.Errorf("exec: Index-Join next before open")
	}
	if err := it.db.checkCancel(); err != nil {
		return 0, err
	}
	k := it.k
	n, work := 0, 0
	var err error
	for m := len(dst) / k; n < m; {
		if it.ridPos < len(it.rids) {
			var pos int
			if pos, err = it.table.Fetch(it.rids[it.ridPos], it.db.Acc, it.db.Faults); err != nil {
				break
			}
			it.ridPos++
			work++
			out := dst[n*k : (n+1)*k]
			copy(out, it.outer.cur())
			out[k-1] = int32(pos)
			if it.residual && float64(it.resid.at(out)) >= it.residLimit {
				continue
			}
			n++
			continue
		}
		var ok bool
		if ok, err = it.outer.next(); !ok {
			break
		}
		work++
		key := it.outerKey.at(it.outer.cur())
		it.rids, it.ridPos = it.tree.AppendRange(it.rids[:0], key, key), 0
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
func (db *DB) buildSort(n *physical.Node, b *bindings.Bindings) (Iterator, error) {
	child, schema, err := db.Build(n.Children[0], b)
	if err != nil {
		return nil, err
	}
	col, err := schema.Index(n.Attr)
	if err != nil {
		return nil, err
	}
	k := len(child.tabs)
	return carve(&db.sc.f.sorts, sortIter{
		db: db, sc: db.sc, child: child, key: columnAt(child.tabs, col), k: k,
		childNode:   n.Children[0],
		childSchema: schema,
		childTabs:   child.tabs,
		rowBytes:    n.Children[0].RowBytes,
		memPages:    b.Memory,
		rows:        db.startRows(n.Children[0], k, b), // sized to the input's prediction
	}), nil
}

// sortIter is the Sort enforcer. It buffers its whole input's tuples and
// hands them out in the stable order of one column, which sortOrder
// computes over their keys.
type sortIter struct {
	db    *DB
	sc    *scratch // draws the buffers
	child Iterator
	key   column
	k     int // positions per tuple
	// childNode, childSchema and childTabs identify the materialized input
	// subtree for the cardinality guard consulted once the input fully
	// drains.
	childNode   *physical.Node
	childSchema Schema
	childTabs   []*storage.Table
	rowBytes    int
	memPages    float64

	childClosed bool
	rows        []int32 // the input tuples, in arrival order
	order       []int32 // the tuples' indices, sorted
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
	rows, err := drain(it.child, it.k, it.rows[:0], it.sc)
	it.rows, it.order, it.pos = rows, nil, 0
	n := len(rows) / it.k
	it.db.Acc.Tuples(int64(n))
	if err != nil {
		return err
	}
	if err := it.child.Close(); err != nil {
		return err
	}
	it.childClosed = true
	// The sort input is a materialization point: the full input is
	// buffered, so the guard sees the true cardinality before the sort
	// (and any external-sort I/O) is paid for. The tuples are in drain
	// order; guard temporaries never claim a sort order.
	if err := it.db.checkMat(it.childNode, it.childSchema, rows, it.childTabs); err != nil {
		return err
	}
	if n > it.maxRows {
		it.maxRows = n
	}
	keys := draw(it.sc, keyShelf, n)
	for i := range keys {
		keys[i] = it.key.at(rows[i*it.k:])
	}
	it.order = sortOrder(keys, it.sc)
	// Charge external-sort I/O when the input would not fit in memory:
	// run generation plus merge passes, write + read each (mirroring the
	// cost model's formula).
	pages := pagesOf(it.rowBytes, n)
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

// NextBatch hands out the tuples in sorted order.
func (it *sortIter) NextBatch(dst []int32) (int, error) {
	k := it.k
	n := min(len(dst)/k, len(it.order)-it.pos)
	for i, j := range it.order[it.pos : it.pos+n] {
		copy(dst[i*k:(i+1)*k], it.rows[int(j)*k:])
	}
	it.pos += n
	return n, nil
}

func (it *sortIter) Close() error {
	it.rows, it.order = nil, nil
	if !it.childClosed {
		it.childClosed = true
		return it.child.Close()
	}
	return nil
}

// sortKey is one key and its index, the comparison sort's element.
type sortKey struct {
	key int64
	pos int32
}

// sortOrder returns the indices of keys in the stable order of the keys,
// drawn from sc. When every key's offset from the smallest fits in 32 bits
// it sorts one uint64 per key, offset<<32 | index, with the ordered
// slices.Sort: the index breaks ties, so that order is the stable one.
// Wider keys sort (key, index) pairs with a comparison that does the same.
// Neither sort moves anything but pointer-free words.
func sortOrder(keys []int64, sc *scratch) []int32 {
	order := draw(sc, intShelf, len(keys))
	if len(keys) < 2 {
		for i := range order {
			order[i] = int32(i)
		}
		return order
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	if uint64(hi)-uint64(lo) <= math.MaxUint32 {
		packed := draw(sc, packedShelf, len(keys))
		for i, k := range keys {
			packed[i] = (uint64(k)-uint64(lo))<<32 | uint64(i)
		}
		slices.Sort(packed)
		for i, p := range packed {
			order[i] = int32(uint32(p))
		}
		return order
	}
	pairs := draw(sc, pairShelf, len(keys))
	for i, k := range keys {
		pairs[i] = sortKey{k, int32(i)}
	}
	slices.SortFunc(pairs, func(a, b sortKey) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		return int(a.pos - b.pos)
	})
	for i, p := range pairs {
		order[i] = p.pos
	}
	return order
}
