package exec

import (
	"math/bits"

	"dynplan/internal/storage"
)

// batchRows is the vector length streaming operators settle at, in
// tuples: large enough to amortize per-call metering and cancellation
// polling, small enough that a vector of positions stays a couple of
// kilobytes.
const batchRows = 64

// minBatch is the tuple count drains start at when nothing predicts their
// size; they grow geometrically from it, so an operator that sees few
// tuples — a near-empty 10-way join has a dozen — draws a few hundred
// bytes, not a full vector.
const minBatch = 8

// column is where an operator's tuples keep one column of its schema:
// position slot of a tuple names a row of vals, width values a row, and
// the column is the row's col-th value.
type column struct {
	vals             []int64
	slot, width, col int
}

// at returns the column's value in tuple t.
func (c *column) at(t []int32) int64 { return c.value(t[c.slot]) }

// value returns the column's value in the row at position pos. It is the
// one way an operator reads a value: the position times the row width,
// plus the column.
func (c *column) value(pos int32) int64 { return c.vals[int(pos)*c.width+c.col] }

// columnAt returns where column i of a schema over the sources tabs lives:
// the sources' columns follow one another, each table's in its own order.
func columnAt(tabs []*storage.Table, i int) column {
	slot := 0
	for ; i >= tabs[slot].Width(); slot++ {
		i -= tabs[slot].Width()
	}
	t := tabs[slot]
	return column{vals: t.Values(), slot: slot, width: t.Width(), col: i}
}

// materialize copies the values of tuples — each one position per table
// of tabs — into one exact []int64, row after row, a tuple's row being its
// sources' rows in order. With views set it also returns one
// capacity-clipped view of each row there. It is the one copy of values a
// run makes, and returns nil for no tuples.
func materialize(tuples []int32, tabs []*storage.Table, views bool) ([]int64, []storage.Row) {
	k, width := len(tabs), 0
	if len(tuples) == 0 {
		return nil, nil
	}
	for _, t := range tabs {
		width += t.Width()
	}
	vals := make([]int64, len(tuples)/k*width)
	off := 0
	for s, t := range tabs {
		src, w := t.Values(), t.Width()
		for i, q := s, off; i < len(tuples); i, q = i+k, q+width {
			// A row is a few values: a loop copies them faster than a call.
			p := int(tuples[i]) * w
			from := src[p : p+w : p+w]
			to := vals[q : q+len(from) : q+len(from)]
			for j := range to {
				to[j] = from[j]
			}
		}
		off += w
	}
	if !views {
		return vals, nil
	}
	rows := make([]storage.Row, len(tuples)/k)
	for i := range rows {
		rows[i] = vals[i*width : (i+1)*width : (i+1)*width]
	}
	return vals, rows
}

// drain appends the rest of the input's stream, tuples of k positions, to
// buf. The input writes straight into buf's spare capacity; a full buf
// moves to the next capacity of minBatch·2^j tuples, drawn from sc,
// whether it started at minBatch or at a prediction (see startRows), so a
// drain of n tuples makes O(log n) calls and draws. Tuples produced by a
// failing call are kept: they were read, and their work was charged.
func drain(it Iterator, k int, buf []int32, sc *scratch) ([]int32, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(draw(sc, intShelf, k*(minBatch<<bits.Len(uint(len(buf)/k/minBatch))))[:0], buf...)
		}
		n, err := it.NextBatch(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n*k]
		if err != nil || n == 0 {
			return buf, err
		}
	}
}

// cursor reads a join's streaming input a vector at a time and hands out
// its tuples, k positions each, one by one. The vector doubles from two
// tuples up to batchRows: an input that ends early — most of them, in a
// near-empty plan — never drew a full vector.
type cursor struct {
	src   Iterator
	sc    *scratch // draws the vectors
	k     int
	batch []int32
	pos   int // batch[pos-k:pos] is the current tuple
}

// next moves to the input's next tuple; ok is false at end of stream and
// on error.
func (c *cursor) next() (ok bool, err error) {
	if c.pos == len(c.batch) {
		// A vector grows once it has handed tuples out; past the end of
		// the stream it is reused as it is.
		buf := c.batch[:cap(c.batch)]
		switch {
		case len(buf) == 0:
			buf = draw(c.sc, intShelf, 2*c.k)
		case c.pos > 0 && len(buf) < batchRows*c.k:
			buf = draw(c.sc, intShelf, min(2*len(buf), batchRows*c.k))
		}
		n, err := c.src.NextBatch(buf)
		if err != nil || n == 0 {
			c.batch, c.pos = buf[:0], 0
			return false, err
		}
		c.batch, c.pos = buf[:n*c.k], 0
	}
	c.pos += c.k
	return true, nil
}

// cur returns the tuple the last successful next moved to.
func (c *cursor) cur() []int32 { return c.batch[c.pos-c.k : c.pos] }

// release drops the vector, rewinding the cursor.
func (c *cursor) release() { c.batch, c.pos = nil, 0 }
