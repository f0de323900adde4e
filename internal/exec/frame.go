package exec

import (
	"cmp"
	"math/bits"
	"slices"
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
// Temp-Scan, the sources (the tables the plan's leaves read, in leaf
// order), the names of their columns and, metered, the stats and the
// Children behind them — counted by one walk of the plan. Only Run's
// goroutine carves, until the tree opens; a Temp-Scan, which only
// re-optimization splices in, is allocated on its own. srcs and names are
// appended to, so every operator's sources and schema are one stretch of
// them; the names, stats and kids are the caller's, the other slabs the
// scratch's. open is the stack of stats whose operator's parent Build has
// not finished, and built is Build's post-order cursor into DB.Cards.
type frame struct {
	ops        []opIter
	files      []fileScanIter
	btrees     []btreeScanIter
	filters    []filterIter
	sorts      []sortIter
	hashes     []hashJoinIter
	merges     []mergeJoinIter
	indexes    []indexJoinIter
	srcs       []*storage.Table
	names      []string
	stats      []obs.PlanStats
	kids, open []*obs.PlanStats
	built      int
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
	db.sc.carved = c
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
		srcs:    reuse(&s.srcs, c.srcs)[:0],
		names:   make([]string, 0, c.names),
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
// slabs and every buffer a run draws — tuple vectors, hash-join build
// tuples, keys and tables, Sort buffers, keys and orders, and the root's
// drain. No buffer on a shelf holds a pointer, so drawing one, filling it
// and keeping it pooled costs the garbage collector nothing. Run takes
// one from scratches and puts it back after the tree closes, for later
// runs to reuse. Only Run's goroutine draws; a Build outside Run draws
// from one never released.
type scratch struct {
	f      frame           // what Build carves from while Run compiles
	slabs  frame           // f's slabs at full length, kept across runs
	labels strings.Builder // the stats' labels: the caller's buffer
	carved census          // what the run's frame counted: how far it carves into each slab
	ints   shelf[int32]    // tuple vectors, join tables, sort orders
	keys   shelf[int64]    // build and sort keys
	packed shelf[uint64]   // packed sort keys
	pairs  shelf[sortKey]  // sort keys too wide to pack
}

// scratches holds the scratches no run is using.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// scratchBytes is the most a pooled scratch keeps of released buffers:
// the exec_heavy chains keep under 200 KiB, and a ×100 query's buffers,
// megabytes, would otherwise stay pinned in the pool for every later run.
const scratchBytes = 1 << 20

// release frees what the run drew for the next run. The frame's slabs, a
// few KiB for any plan, are always kept, and what the run carved of them
// is wiped, so a pooled scratch keeps no plan node, table or iterator
// alive.
func (s *scratch) release() {
	c, sl := &s.carved, &s.slabs
	clear(sl.ops[:c.ops])
	clear(sl.files[:c.iters[physical.FileScan]])
	clear(sl.btrees[:c.iters[physical.BtreeScan]+c.iters[physical.FilterBtreeScan]])
	clear(sl.filters[:c.iters[physical.Filter]])
	clear(sl.sorts[:c.iters[physical.Sort]])
	clear(sl.hashes[:c.iters[physical.HashJoin]])
	clear(sl.merges[:c.iters[physical.MergeJoin]])
	clear(sl.indexes[:c.iters[physical.IndexJoin]])
	clear(sl.srcs[:c.srcs])
	clear(sl.open[:min(c.ops, len(sl.open))])
	*c = census{}
	s.labels.Reset()
	budget := scratchBytes
	s.ints.release(&budget)
	s.keys.release(&budget)
	s.packed.release(&budget)
	s.pairs.release(&budget)
}

// draw returns n elements from the shelf of s that on picks, or new ones,
// which the caller keeps, when s is nil.
func draw[T any](s *scratch, on func(*scratch) *shelf[T], n int) []T {
	if s == nil {
		return make([]T, n)
	}
	return on(s).get(n)
}

func intShelf(s *scratch) *shelf[int32]     { return &s.ints }
func keyShelf(s *scratch) *shelf[int64]     { return &s.keys }
func packedShelf(s *scratch) *shelf[uint64] { return &s.packed }
func pairShelf(s *scratch) *shelf[sortKey]  { return &s.pairs }

// shelf is a scratch's buffers of one element type, smallest first, and
// which of them the run has drawn. Every buffer holds a power of two
// elements, so runs whose sizes differ a little share buffers and the
// shelf stays short. A buffer stays in its slot of bufs from the run that
// made it until a release drops it, so drawing and releasing in a warm
// scratch writes no pointer.
type shelf[T any] struct {
	bufs  [][]T
	drawn []bool // drawn[i]: the run has bufs[i]
}

// get draws a buffer of n elements, capacity-clipped: the smallest free
// one that holds them, or a new one.
func (sh *shelf[T]) get(n int) []T {
	i := sh.search(n)
	for ; i < len(sh.bufs) && sh.drawn[i]; i++ {
	}
	if i == len(sh.bufs) {
		size := 1 << bits.Len(uint(max(n, 1)-1))
		i = sh.search(size)
		sh.bufs, sh.drawn = slices.Insert(sh.bufs, i, make([]T, size)), slices.Insert(sh.drawn, i, false)
	}
	sh.drawn[i] = true
	return sh.bufs[i][:n:n]
}

// search returns the index of the first buffer that holds n elements.
func (sh *shelf[T]) search(n int) int {
	i, _ := slices.BinarySearchFunc(sh.bufs, n, func(b []T, n int) int { return cmp.Compare(cap(b), n) })
	return i
}

// release frees the run's buffers. They, then the free ones, are kept
// while they fit in budget bytes: recent runs' first.
func (sh *shelf[T]) release(budget *int) {
	size := int(unsafe.Sizeof(*new(T)))
	kept := 0
	for _, drawn := range [2]bool{true, false} {
		for i, b := range sh.bufs {
			if sh.drawn[i] != drawn {
				continue
			}
			if c := cap(b) * size; c <= *budget {
				*budget -= c
				kept++
			} else {
				sh.bufs[i] = nil
			}
		}
	}
	if kept < len(sh.bufs) {
		sh.bufs = slices.DeleteFunc(sh.bufs, func(b []T) bool { return b == nil })
	}
	clear(sh.drawn)
	sh.drawn = sh.drawn[:len(sh.bufs)]
}

// startRows returns the buffer a drain of n, the operator Build finished
// last, starts at, for tuples of k positions, drawn from the run's
// scratch: n's predicted rows, scaled by stored, and a quarter more (one
// row over the start doubles the buffer), at most b's grant over 24 bytes
// a row — the cap the vectors' lengths were fixed under; nil, growth from
// minBatch, for no prediction, one of at most minBatch rows, or a start
// that small.
func (db *DB) startRows(n *physical.Node, k int, b *bindings.Bindings) []int32 {
	if db.sc.f.built > len(db.Cards) || !(db.Cards[db.sc.f.built-1] > minBatch) {
		return nil
	}
	rows := int(min(1.25*db.Cards[db.sc.f.built-1]*db.stored(n)+1, b.Memory*storage.PageBytes/24))
	if rows <= minBatch {
		return nil
	}
	return draw(db.sc, intShelf, rows*k)[:0]
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

// census counts decorators, serial iterators by operator, sources, their
// columns and, metered, the bytes of the stats' labels.
type census struct {
	ops, srcs, names, labels int
	iters                    [physical.TempScan + 1]int
}

// count walks the subtree compile builds for n, mirroring its dispatch.
func (db *DB) count(n *physical.Node, c *census) {
	c.ops++
	if db.Meter {
		var buf [128]byte
		c.labels += len(n.AppendLabel(buf[:0]))
	}
	switch op := n.Op; {
	case op.IsScan():
		c.iters[op]++
		c.srcs++
		c.names += db.width(n.Rel)
	case op == physical.TempScan:
		c.srcs++
		if t, ok := db.Temps[n.Rel]; ok {
			c.names += len(t.Schema)
		}
	case op == physical.Filter, op == physical.Sort:
		c.iters[op]++
		db.count(n.Children[0], c)
	case op == physical.HashJoin, op == physical.MergeJoin:
		c.iters[op]++
		db.count(n.Children[0], c)
		db.count(n.Children[1], c)
	case op == physical.IndexJoin:
		c.iters[op]++
		db.count(n.Children[0], c)
		c.srcs++
		c.names += db.width(n.Rel)
	}
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
