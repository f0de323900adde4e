package exec

import "dynplan/internal/physical"

// frame is one run's set-up memory: one exact-sized slab per kind — the
// operator decorators, the iterators of each serial operator kind, the
// names behind every join schema — counted by one walk of the plan. Only
// the goroutine that calls Build carves: Run empties the frame before the
// tree opens and worker clones start empty, so what exchange workers build
// in their own goroutines is allocated one by one.
type frame struct {
	ops     []opIter
	files   []fileScanIter
	btrees  []btreeScanIter
	filters []filterIter
	sorts   []sortIter
	hashes  []hashJoinIter
	merges  []mergeJoinIter
	indexes []indexJoinIter
	temps   []tempScanIter
	names   []string
}

// newFrame sizes a frame for compiling root; a kind the plan lacks gets an
// empty slab, which allocates nothing.
func (db *DB) newFrame(root *physical.Node) frame {
	var c census
	db.count(root, &c)
	return frame{
		ops:     make([]opIter, c.ops),
		files:   make([]fileScanIter, c.iters[physical.FileScan]),
		btrees:  make([]btreeScanIter, c.iters[physical.BtreeScan]+c.iters[physical.FilterBtreeScan]),
		filters: make([]filterIter, c.iters[physical.Filter]),
		sorts:   make([]sortIter, c.iters[physical.Sort]),
		hashes:  make([]hashJoinIter, c.iters[physical.HashJoin]),
		merges:  make([]mergeJoinIter, c.iters[physical.MergeJoin]),
		indexes: make([]indexJoinIter, c.iters[physical.IndexJoin]),
		temps:   make([]tempScanIter, c.iters[physical.TempScan]),
		names:   make([]string, c.names),
	}
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
		c.iters[op]++
		if t, ok := db.Temps[n.Rel]; ok {
			return len(t.Schema)
		}
		return 0
	case op == physical.Filter && par && n.Children[0].Op == physical.FileScan:
		return db.width(n.Children[0].Rel) // pushed into the scan's workers
	case op == physical.Filter, op == physical.Sort:
		c.iters[op]++
		return db.count(n.Children[0], c)
	case op == physical.HashJoin && par && db.Guards == nil:
		var clones census // the symmetric join's inputs compile under worker clones
		width = db.count(n.Children[0], &clones) + db.count(n.Children[1], &clones)
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

// ownsSchema reports whether a plan outputs a join's schema, which its run
// built. A scan's schema is the catalog's and a Temp-Scan's the
// temporary's; a Filter or a Sort passes its input's on.
func ownsSchema(n *physical.Node) bool {
	for n.Op == physical.Filter || n.Op == physical.Sort {
		n = n.Children[0]
	}
	return n.Op == physical.HashJoin || n.Op == physical.MergeJoin || n.Op == physical.IndexJoin
}
