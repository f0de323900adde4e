package exec

import (
	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/storage"
)

// frame is one run's set-up memory: one exact-sized slab per kind — the
// operator decorators, the iterators of each serial operator kind but the
// Temp-Scan, the names behind every join schema — counted by one walk of
// the plan. Only the goroutine that calls Build carves: Run empties the
// frame before the tree opens and worker clones start empty, so what
// exchange workers build in their own goroutines is allocated one by one.
// So is a Temp-Scan, which only re-optimization splices in: its slab would
// push every query's DB into the next size class. built is Build's
// post-order cursor into DB.Cards.
type frame struct {
	ops     []opIter
	files   []fileScanIter
	btrees  []btreeScanIter
	filters []filterIter
	sorts   []sortIter
	hashes  []hashJoinIter
	merges  []mergeJoinIter
	indexes []indexJoinIter
	names   []string
	built   int
}

// newFrame sizes a frame for compiling root; a kind the plan lacks gets an
// empty slab, which allocates nothing. It drops DB.Cards unless the run is
// serial and they hold one prediction per operator count walks.
func (db *DB) newFrame(root *physical.Node) frame {
	var c census
	db.count(root, &c)
	if db.Parallel > 1 || len(db.Cards) != c.ops {
		db.Cards = nil
	}
	return frame{
		ops:     make([]opIter, c.ops),
		files:   make([]fileScanIter, c.iters[physical.FileScan]),
		btrees:  make([]btreeScanIter, c.iters[physical.BtreeScan]+c.iters[physical.FilterBtreeScan]),
		filters: make([]filterIter, c.iters[physical.Filter]),
		sorts:   make([]sortIter, c.iters[physical.Sort]),
		hashes:  make([]hashJoinIter, c.iters[physical.HashJoin]),
		merges:  make([]mergeJoinIter, c.iters[physical.MergeJoin]),
		indexes: make([]indexJoinIter, c.iters[physical.IndexJoin]),
		names:   make([]string, c.names),
	}
}

// startRows returns the buffer a drain of n, the operator Build finished
// last, starts at: its predicted rows, scaled by stored, and a quarter
// more (one row over the start doubles the buffer), at most the 24-byte
// row headers b's grant holds; nil, growth from minBatch, for no
// prediction, one of at most minBatch rows, or a start that small.
func (db *DB) startRows(n *physical.Node, b *bindings.Bindings) []storage.Row {
	if db.f.built > len(db.Cards) || !(db.Cards[db.f.built-1] > minBatch) {
		return nil
	}
	rows := int(min(1.25*db.Cards[db.f.built-1]*db.stored(n)+1, b.Memory*storage.PageBytes/24))
	if rows <= minBatch {
		return nil
	}
	return make([]storage.Row, 0, rows)
}

// stored is the factor a stale catalog puts n's cardinality off by: the
// product, over the relations n reads, of stored rows over costed rows.
func (db *DB) stored(n *physical.Node) float64 {
	f := 1.0
	if n.Op.IsScan() || n.Op == physical.IndexJoin {
		if t, err := db.Store.Table(n.Rel); err == nil && n.BaseCard > 0 {
			f = float64(t.NumRows()) / float64(n.BaseCard)
		}
	}
	for _, c := range n.Children {
		f *= db.stored(c)
	}
	return f
}

// census counts decorators, serial iterators by operator and join names.
type census struct {
	ops, names int
	iters      [physical.TempScan + 1]int
}

// count walks the subtree compile builds for n, mirroring its dispatch,
// and returns the width of the subtree's schema.
func (db *DB) count(n *physical.Node, c *census) (width int) {
	c.ops++
	par := db.Parallel > 1
	switch op := n.Op; {
	case op.IsScan():
		if !par {
			c.iters[op]++
		}
		return db.width(n.Rel)
	case op == physical.TempScan:
		if t, ok := db.Temps[n.Rel]; ok {
			return len(t.Schema)
		}
		return 0
	case op == physical.Filter && par && n.Children[0].Op == physical.FileScan:
		return db.width(n.Children[0].Rel) // pushed into the scan's workers
	case op == physical.Filter, op == physical.Sort:
		c.iters[op]++
		return db.count(n.Children[0], c)
	case op == physical.HashJoin, op == physical.MergeJoin:
		c.iters[op]++
		width = db.count(n.Children[0], c) + db.count(n.Children[1], c)
	case op == physical.IndexJoin:
		c.iters[op]++
		width = db.count(n.Children[0], c) + db.width(n.Rel)
	default:
		return 0
	}
	c.names += width
	return width
}

// width is the number of columns of a base relation.
func (db *DB) width(rel string) int {
	s, _ := db.relSchema(rel)
	return len(s)
}

// carve places v in the next element of a slab and returns it; once the
// slab is spent (outside Run, it always is) the element is a new one.
func carve[T any](s *[]T, v T) *T {
	if len(*s) == 0 {
		*s = make([]T, 1)
	}
	p := &(*s)[0]
	*p, *s = v, (*s)[1:]
	return p
}

// joinSchema is the schema of a join's output, carved from the frame: the
// left input's columns, then the right's.
func (db *DB) joinSchema(l, r Schema) Schema {
	n := len(l) + len(r)
	if len(db.f.names) < n {
		db.f.names = make(Schema, n)
	}
	s := db.f.names[:0:n]
	db.f.names = db.f.names[n:]
	return append(append(s, l...), r...)
}

// ownsResult reports whether a plan outputs a join's rows under a join's
// schema, both of which its run built and nothing else keeps: a join
// carves every output row afresh from its own slab. A scan hands out the
// stored rows under the catalog's schema and a Temp-Scan the temporary's;
// a Filter or a Sort passes its input's on.
func ownsResult(n *physical.Node) bool {
	for n.Op == physical.Filter || n.Op == physical.Sort {
		n = n.Children[0]
	}
	return n.Op == physical.HashJoin || n.Op == physical.MergeJoin || n.Op == physical.IndexJoin
}
