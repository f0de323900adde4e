package exec

import (
	"strings"
	"sync"
	"unsafe"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/storage"
)

// frame is one run's set-up memory: one exact-sized slab per kind — the
// operator decorators, the iterators of each serial operator kind but the
// Temp-Scan, the names behind every join schema and, metered, the stats
// and the Children behind them — counted by one walk of the plan. Only
// Run's goroutine carves, until the tree opens; a Temp-Scan, which only
// re-optimization splices in, is allocated on its own. The names, stats
// and kids are the caller's, the other slabs the scratch's; open is the
// stack of stats whose operator's parent Build has not finished. built is
// Build's post-order cursor into DB.Cards; root and result are the run's
// root and the join ownsResult walks down to.
type frame struct {
	ops          []opIter
	files        []fileScanIter
	btrees       []btreeScanIter
	filters      []filterIter
	sorts        []sortIter
	hashes       []hashJoinIter
	merges       []mergeJoinIter
	indexes      []indexJoinIter
	names        []string
	stats        []obs.PlanStats
	kids, open   []*obs.PlanStats
	built        int
	root, result *physical.Node
}

// newFrame sizes a frame for compiling root from the slabs of the run's
// scratch; a kind the plan lacks gets an empty slab. It drops DB.Cards
// unless they hold one prediction per operator count walks.
func (db *DB) newFrame(root *physical.Node) frame {
	var c census
	db.count(root, &c)
	if len(db.Cards) != c.ops {
		db.Cards = nil
	}
	s := &db.sc.slabs
	f := frame{
		ops:     reuse(&s.ops, c.ops),
		files:   reuse(&s.files, c.iters[physical.FileScan]),
		btrees:  reuse(&s.btrees, c.iters[physical.BtreeScan]+c.iters[physical.FilterBtreeScan]),
		filters: reuse(&s.filters, c.iters[physical.Filter]),
		sorts:   reuse(&s.sorts, c.iters[physical.Sort]),
		hashes:  reuse(&s.hashes, c.iters[physical.HashJoin]),
		merges:  reuse(&s.merges, c.iters[physical.MergeJoin]),
		indexes: reuse(&s.indexes, c.iters[physical.IndexJoin]),
		names:   make([]string, c.names),
		root:    root,
		result:  resultJoin(root),
	}
	if db.Meter {
		// A tree's operators are all inputs of one other, but the root.
		f.stats, f.kids = make([]obs.PlanStats, c.ops), make([]*obs.PlanStats, c.ops-1)
		f.open = reuse(&s.open, c.ops)[:0]
		db.sc.labels.Grow(c.labels)
	}
	return f
}

// reuse returns the first n elements of *slab, grown to n if shorter.
func reuse[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, n)
	}
	return (*slab)[:n:n]
}

// scratch is the memory a run drops once its tree closes: the frame's
// slabs, hash-join build buffers, non-root Sort buffers, join input
// vectors, hash tables, sort keys and, without guards, the slab chunks of
// every join but the result join. Run takes one from scratches and puts
// it back after the tree closes, for later runs to reuse. Only Run's
// goroutine draws; a Build outside Run draws from one never released.
type scratch struct {
	f      frame           // what Build carves from while Run compiles
	slabs  frame           // f's slabs at full length, kept across runs
	labels strings.Builder // the stats' labels: the caller's buffer
	rows   shelf[storage.Row]
	chunks shelf[int64]
	tables shelf[int32] // zeroed: drawn parts are wiped on release
	keys   shelf[sortKey]
}

// scratches holds the scratches no run is using.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// scratchBytes is the most a pooled scratch keeps of released buffers:
// the exec_heavy chains keep under 200 KiB, and a ×100 query's buffers,
// megabytes, would otherwise stay pinned in the pool for every later run.
const scratchBytes = 1 << 20

// release wipes what the run drew that holds pointers, so a pooled scratch
// keeps no rows, tables or plan nodes alive, and frees it for the next
// run. The frame's slabs, a few KiB for any plan, are always kept.
func (s *scratch) release() {
	clear(s.slabs.ops)
	clear(s.slabs.files)
	clear(s.slabs.btrees)
	clear(s.slabs.filters)
	clear(s.slabs.sorts)
	clear(s.slabs.hashes)
	clear(s.slabs.merges)
	clear(s.slabs.indexes)
	clear(s.slabs.open)
	s.labels.Reset()
	budget := scratchBytes
	s.rows.release(&budget, true)
	s.tables.release(&budget, true)
	s.chunks.release(&budget, false)
	s.keys.release(&budget, false)
}

// joinSlab returns the scratch's slab for the join at n, or a slab of its
// own for rows that outlive the run: the result join's, and under guards
// any join's, which a guard's AddTemp may keep.
func (db *DB) joinSlab(n *physical.Node) slab {
	if n == db.sc.f.result || db.Guards != nil {
		return slab{}
	}
	return slab{sc: db.sc}
}

// draw returns n elements from the shelf of s that on picks, or new ones,
// which the caller keeps, when s is nil.
func draw[T any](s *scratch, on func(*scratch) *shelf[T], n int) []T {
	if s == nil {
		return make([]T, n)
	}
	return on(s).get(n)
}

func rowShelf(s *scratch) *shelf[storage.Row] { return &s.rows }
func chunkShelf(s *scratch) *shelf[int64]     { return &s.chunks }
func tableShelf(s *scratch) *shelf[int32]     { return &s.tables }
func keyShelf(s *scratch) *shelf[sortKey]     { return &s.keys }

// shelf is a scratch's buffers of one element type: the free ones, and
// the ones the run has drawn.
type shelf[T any] struct{ free, used [][]T }

// get draws a buffer of n elements, capacity-clipped: the smallest free
// one that holds them, or a new one.
func (sh *shelf[T]) get(n int) []T {
	best := -1
	for i, b := range sh.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(sh.free[best])) {
			best = i
		}
	}
	var b []T
	if last := len(sh.free) - 1; best >= 0 {
		b, sh.free[best], sh.free[last] = sh.free[best], sh.free[last], nil
		sh.free = sh.free[:last]
	} else {
		b = make([]T, n)
	}
	sh.used = append(sh.used, b[:n]) // the run writes no further
	return b[:n:n]
}

// release frees the run's buffers, wiped if wipe is set. They, then the
// free ones, are kept while they fit in budget bytes: recent runs' first.
func (sh *shelf[T]) release(budget *int, wipe bool) {
	size := int(unsafe.Sizeof(*new(T)))
	kept := sh.used[:0]
	for i, list := range [2][][]T{sh.used, sh.free} {
		for _, b := range list {
			if wipe && i == 0 {
				clear(b)
			}
			if c := cap(b) * size; c <= *budget {
				*budget -= c
				kept = append(kept, b)
			}
		}
	}
	clear(sh.used[min(len(kept), len(sh.used)):])
	clear(sh.free)
	sh.free, sh.used = kept, sh.free[:0]
}

// startRows returns the buffer a drain of n, the operator Build finished
// last, starts at, drawn from sc: its predicted rows, scaled by stored,
// and a quarter more (one row over the start doubles the buffer), at most
// the 24-byte row headers b's grant holds; nil, growth from minBatch, for
// no prediction, one of at most minBatch rows, or a start that small.
func (db *DB) startRows(n *physical.Node, b *bindings.Bindings, sc *scratch) []storage.Row {
	if db.sc.f.built > len(db.Cards) || !(db.Cards[db.sc.f.built-1] > minBatch) {
		return nil
	}
	rows := int(min(1.25*db.Cards[db.sc.f.built-1]*db.stored(n)+1, b.Memory*storage.PageBytes/24))
	if rows <= minBatch {
		return nil
	}
	return draw(sc, rowShelf, rows)[:0]
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

// census counts decorators, serial iterators by operator, join names
// and, metered, the bytes of the stats' labels.
type census struct {
	ops, names, labels int
	iters              [physical.TempScan + 1]int
}

// count walks the subtree compile builds for n, mirroring its dispatch,
// and returns the width of the subtree's schema.
func (db *DB) count(n *physical.Node, c *census) (width int) {
	c.ops++
	if db.Meter {
		var buf [128]byte
		c.labels += len(n.AppendLabel(buf[:0]))
	}
	switch op := n.Op; {
	case op.IsScan():
		c.iters[op]++
		return db.width(n.Rel)
	case op == physical.TempScan:
		if t, ok := db.Temps[n.Rel]; ok {
			return len(t.Schema)
		}
		return 0
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
	f := &db.sc.f
	if len(f.names) < n {
		f.names = make(Schema, n)
	}
	s := f.names[:0:n]
	f.names = f.names[n:]
	return append(append(s, l...), r...)
}

// ownsResult reports whether a plan outputs a join's rows under a join's
// schema, both of which its run built and nothing else keeps: a join
// carves every output row afresh from its own slab. A scan hands out the
// stored rows under the catalog's schema and a Temp-Scan the temporary's;
// a Filter or a Sort passes its input's on.
func ownsResult(n *physical.Node) bool { return resultJoin(n) != nil }

// resultJoin returns the join whose rows a plan outputs, or nil.
func resultJoin(n *physical.Node) *physical.Node {
	for n.Op == physical.Filter || n.Op == physical.Sort {
		n = n.Children[0]
	}
	if n.Op == physical.HashJoin || n.Op == physical.MergeJoin || n.Op == physical.IndexJoin {
		return n
	}
	return nil
}
