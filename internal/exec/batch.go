package exec

import (
	"math/bits"

	"dynplan/internal/storage"
)

// batchRows is the vector length streaming operators settle at: large
// enough to amortize per-call metering and cancellation polling, small
// enough that a batch of row headers stays a couple of kilobytes.
const batchRows = 64

// minBatch is the row count drains and join slabs start at when nothing
// predicts their size; they grow geometrically from it, so an operator
// that sees few rows — a near-empty 10-way join has a dozen — allocates a
// few hundred bytes, not a full vector.
const minBatch = 8

// drain appends the rest of the input's stream to rows. The input writes
// straight into rows' spare capacity; a full rows moves to the next
// capacity minBatch·2^k, drawn from sc, whether it started at minBatch or
// at a prediction (see startRows), so a drain of n rows makes O(log n)
// calls and allocations. Rows produced by a failing call are kept: they
// were read, and their work was charged.
func drain(it Iterator, rows []storage.Row, sc *scratch) ([]storage.Row, error) {
	for {
		if len(rows) == cap(rows) {
			rows = append(draw(sc, rowShelf, minBatch<<bits.Len(uint(len(rows)/minBatch)))[:0], rows...)
		}
		n, err := it.NextBatch(rows[len(rows):cap(rows)])
		rows = rows[:len(rows)+n]
		if err != nil || n == 0 {
			return rows, err
		}
	}
}

// cursor reads a join's streaming input a vector at a time and hands out
// its rows one by one. The vector doubles from two rows up to batchRows:
// an input that ends early — most of them, in a near-empty plan — never
// paid for a full vector. The first vector is the cursor's own.
type cursor struct {
	src   Iterator
	sc    *scratch // draws the other vectors
	batch []storage.Row
	pos   int
	first [2]storage.Row
}

// next returns the input's next row; ok is false at end of stream and on
// error.
func (c *cursor) next() (row storage.Row, ok bool, err error) {
	if c.pos == len(c.batch) {
		// A vector grows once it has handed rows out; past the end of the
		// stream it is reused as it is.
		buf := c.batch[:cap(c.batch)]
		switch {
		case len(buf) == 0:
			buf = c.first[:]
		case c.pos > 0 && len(buf) < batchRows:
			buf = draw(c.sc, rowShelf, min(2*len(buf), batchRows))
		}
		n, err := c.src.NextBatch(buf)
		if err != nil || n == 0 {
			c.batch, c.pos = buf[:0], 0
			return nil, false, err
		}
		c.batch, c.pos = buf[:n], 0
	}
	c.pos++
	return c.batch[c.pos-1], true, nil
}

// release drops the vector, rewinding the cursor.
func (c *cursor) release() { c.batch, c.pos = nil, 0 }

// slabRows caps a slab chunk, in rows.
const slabRows = 512

// slab carves join output rows out of shared chunks, drawn from sc: one
// allocation holds many rows. Chunks double from minBatch rows up to
// slabRows, and a carved row is never written again — rows are immutable,
// so a chunk is simply abandoned to its rows once full.
type slab struct {
	sc    *scratch
	free  []int64
	chunk int // rows in the next chunk
}

// concat returns a followed by b, carved from the slab.
func (s *slab) concat(a, b storage.Row) storage.Row {
	n := len(a) + len(b)
	if len(s.free) < n {
		s.chunk = min(max(2*s.chunk, minBatch), slabRows)
		s.free = draw(s.sc, chunkShelf, s.chunk*n)
	}
	r := s.free[:n:n]
	s.free = s.free[n:]
	copy(r[copy(r, a):], b)
	return r
}

// detach copies rows into one contiguous slab and re-points them there,
// capacity-clipped, so a caller owns its result outright: no row aliases a
// stored table row or a temporary's. Run calls it only for a result that
// may hold such rows; a join's are the run's own already.
func detach(rows []storage.Row) []storage.Row {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	flat := make([]int64, total)
	for i, r := range rows {
		n := copy(flat, r)
		rows[i], flat = flat[:n:n], flat[n:]
	}
	return rows
}
