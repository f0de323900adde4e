package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/qerr"
	"dynplan/internal/storage"
)

// This file is the symmetric streaming hash join: Hash-Join compiled for
// parallel execution. Two distributor goroutines drain the inputs
// concurrently and hash-route every row to one of DOP partition workers;
// each worker keeps a hash table per side, inserting each arriving row
// into its side's table and probing the other's, so matches stream out
// as soon as both halves have arrived — neither input is materialized in
// full before results flow, which is what lets the join live under the
// governor's degradable memory grants (the paper's low-memory choose-plan
// branches, applied to pipelining).
//
// Equivalence with the serial join is exact, not statistical. A matching
// pair (l, r) hashes to the same partition on both sides and is emitted
// by exactly one worker exactly once (insert-then-probe is atomic within
// a partition's single goroutine). The accountant charges are the serial
// join's to the unit — one tuple op per arriving row, one per emitted
// match, the same Grace-spill formula at end of stream — so digest
// equality AND accountant-total equality against serial execution are
// testable invariants, not aspirations.

// symBatch is one unit of distributor→worker traffic: a run of rows from
// one side, or that side's end-of-stream marker.
type symBatch struct {
	rows []storage.Row
	side int // 0 = left (serial build side), 1 = right
	eos  bool
}

// symWorker is one join partition: a private DB clone for accounting and
// cancellation, the two per-side tables, and the partition's tallies.
type symWorker struct {
	id   int
	db   *DB
	in   chan symBatch
	ltab map[int64][]storage.Row
	rtab map[int64][]storage.Row
	out  slab // the partition's joined rows

	lrows, rrows int
	matches      int64
	hw           atomic.Int64
	err          error
	span         *obs.Span
}

type symHashJoinIter struct {
	db          *DB
	node        *physical.Node
	left, right Iterator
	ldb, rdb    *DB // distributor clones the inputs were compiled under
	lcol, rcol  int

	buildRowBytes int
	probeRowBytes int
	memPages      float64
	parts         int

	workers []*symWorker
	out     chan []storage.Row
	stop    chan struct{}
	wg      *sync.WaitGroup // partition workers
	dwg     *sync.WaitGroup // distributors
	lerr    error           // written by the left distributor before its EOS broadcast
	rerr    error
	lrows   atomic.Int64
	rrows   atomic.Int64

	cur       []storage.Row
	pos       int
	batches   int64
	waitNanos int64
	started   bool
	closed    bool
	spilled   bool
	span      *obs.Span
}

// buildSymmetricHashJoin compiles Hash-Join into the streaming symmetric
// variant. Each input subtree is compiled under its own DB clone because
// it will be drained on its own distributor goroutine; nested operators
// (including further parallel scans and joins) inherit the clone.
func (db *DB) buildSymmetricHashJoin(n *physical.Node, b *bindings.Bindings) (Iterator, Schema, error) {
	ldb, rdb := db.workerClone(), db.workerClone()
	left, ls, err := ldb.Build(n.Children[0], b)
	if err != nil {
		return nil, nil, err
	}
	right, rs, err := rdb.Build(n.Children[1], b)
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
	schema := joinSchema(ls, rs)
	return &symHashJoinIter{
		db: db, node: n, left: left, right: right, ldb: ldb, rdb: rdb,
		lcol: lcol, rcol: rcol,
		buildRowBytes: n.Children[0].RowBytes,
		probeRowBytes: n.Children[1].RowBytes,
		memPages:      b.Memory,
		parts:         db.Parallel,
	}, schema, nil
}

// partitionOf routes a join key to a partition. Plain modulo: key domains
// are uniform integers, and determinism matters more than mixing — the
// same key must land on the same partition from both sides, and the
// per-partition row counts must be identical run to run so the committed
// bench records are byte-stable.
func partitionOf(k int64, parts int) int {
	p := int(k % int64(parts))
	if p < 0 {
		p += parts
	}
	return p
}

func (it *symHashJoinIter) Open() error {
	if it.started && !it.closed {
		if err := it.Close(); err != nil {
			return err
		}
	}
	it.stop = make(chan struct{})
	it.out = make(chan []storage.Row, it.parts)
	it.wg, it.dwg = &sync.WaitGroup{}, &sync.WaitGroup{}
	it.lerr, it.rerr = nil, nil
	it.lrows.Store(0)
	it.rrows.Store(0)
	it.cur, it.pos = nil, 0
	it.batches, it.waitNanos = 0, 0
	it.spilled = false
	it.started, it.closed = true, false

	it.workers = make([]*symWorker, it.parts)
	for i := range it.workers {
		it.workers[i] = &symWorker{
			id: i, db: it.db.workerClone(),
			in:   make(chan symBatch, 2),
			ltab: make(map[int64][]storage.Row),
			rtab: make(map[int64][]storage.Row),
		}
	}
	it.openSpans()
	for _, w := range it.workers {
		it.wg.Add(1)
		go it.runWorker(w)
	}
	it.dwg.Add(2)
	go it.distribute(it.left, it.ldb, 0, it.lcol, &it.lerr, &it.lrows)
	go it.distribute(it.right, it.rdb, 1, it.rcol, &it.rerr, &it.rrows)
	go func(wg *sync.WaitGroup, out chan []storage.Row) {
		wg.Wait()
		close(out)
	}(it.wg, it.out)
	return nil
}

// openSpans hangs the join's exchange span — and one span per partition
// worker — off the tracing query's current stage span. All are marked
// concurrent: partitions overlap each other and the consumer, so their
// durations must not count toward the parent's sequential child time.
func (it *symHashJoinIter) openSpans() {
	if it.db.Trace == nil {
		return
	}
	it.span = it.db.Trace.Start(it.db.Span, "partition-join "+it.node.Op.String(), obs.SpanExchange)
	it.span.MarkConcurrent()
	for _, w := range it.workers {
		w.span = it.db.Trace.Start(it.span, fmt.Sprintf("worker-%d", w.id), obs.SpanWorker)
		w.span.MarkConcurrent()
	}
}

// send delivers a batch to partition p, aborting when the join is torn
// down; it reports whether the batch was accepted.
func (it *symHashJoinIter) send(p int, b symBatch) bool {
	select {
	case it.workers[p].in <- b:
		return true
	case <-it.stop:
		return false
	}
}

// distribute drains one input on its own goroutine, routing rows to the
// partition owning their key. Whatever happens — end of stream, error,
// teardown — it broadcasts the side's EOS marker to every partition, so
// workers always see two markers and never block the shutdown path.
// Rows are forwarded and stored by reference: rows are immutable (scans
// return stored rows, joins carve theirs from slabs they never rewrite).
func (it *symHashJoinIter) distribute(src Iterator, sdb *DB, side, col int, errp *error, total *atomic.Int64) {
	defer it.dwg.Done()
	var last storage.AccountSnapshot
	err := func() error {
		if err := src.Open(); err != nil {
			return err
		}
		bins := make([][]storage.Row, it.parts)
		buf := make([]storage.Row, batchRows)
		for {
			n, err := src.NextBatch(buf)
			last = foldAccount(it.db.Acc, sdb.Acc, last)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			total.Add(int64(n))
			for _, row := range buf[:n] {
				p := partitionOf(row[col], it.parts)
				bins[p] = append(bins[p], row)
				if len(bins[p]) >= batchRows {
					if !it.send(p, symBatch{rows: bins[p], side: side}) {
						return nil
					}
					bins[p] = nil
				}
			}
		}
		for p, bin := range bins {
			if len(bin) == 0 {
				continue
			}
			if !it.send(p, symBatch{rows: bin, side: side}) {
				return nil
			}
			bins[p] = nil
		}
		return nil
	}()
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	foldAccount(it.db.Acc, sdb.Acc, last)
	*errp = err
	for p := range it.workers {
		it.send(p, symBatch{side: side, eos: true})
	}
}

// runWorker is one partition's loop: insert each arriving row into its
// side's table, probe the other side's, and stream the concatenated
// matches out. The worker keeps draining its queue until both sides'
// EOS markers arrive — even after an error — so the distributors' sends
// always complete and teardown cannot deadlock.
func (it *symHashJoinIter) runWorker(w *symWorker) {
	defer it.wg.Done()
	defer w.span.End()
	var emit []storage.Row
	flush := func() bool {
		if len(emit) == 0 {
			return true
		}
		batch := emit
		emit = nil
		select {
		case it.out <- batch:
			return true
		case <-it.stop:
			return false
		}
	}
	var last storage.AccountSnapshot
	eos := 0
	for eos < 2 {
		var b symBatch
		select {
		case b = <-w.in:
		case <-it.stop:
			return
		}
		if b.eos {
			eos++
			continue
		}
		if w.err != nil {
			continue // poisoned: discard, keep draining to the markers
		}
		if err := w.db.checkCancel(); err != nil {
			w.err = err
			continue
		}
		for _, row := range b.rows {
			w.db.Acc.Tuples(1)
			if b.side == 0 {
				k := row[it.lcol]
				w.ltab[k] = append(w.ltab[k], row)
				w.lrows++
				for _, m := range w.rtab[k] {
					w.db.Acc.Tuples(1)
					w.matches++
					emit = append(emit, w.out.concat(row, m))
				}
			} else {
				k := row[it.rcol]
				w.rtab[k] = append(w.rtab[k], row)
				w.rrows++
				for _, m := range w.ltab[k] {
					w.db.Acc.Tuples(1)
					w.matches++
					emit = append(emit, w.out.concat(m, row))
				}
			}
		}
		w.hw.Store(int64(w.lrows)*int64(it.buildRowBytes) + int64(w.rrows)*int64(it.probeRowBytes))
		last = foldAccount(it.db.Acc, w.db.Acc, last)
		if len(emit) >= batchRows && !flush() {
			return
		}
	}
	flush()
	foldAccount(it.db.Acc, w.db.Acc, last)
}

// firstErr surfaces the first failure among distributors and workers,
// distributors first (theirs usually caused the workers').
func (it *symHashJoinIter) firstErr() error {
	if it.lerr != nil {
		return it.lerr
	}
	if it.rerr != nil {
		return it.rerr
	}
	for _, w := range it.workers {
		if w.err != nil {
			return w.err
		}
	}
	return nil
}

// fetch blocks for the next output batch; nil with no error is end of
// stream, at which point the serial join's end-of-probe bookkeeping runs:
// the memory-shrink feasibility check and the Grace-spill charge, with
// the serial formulas over the full input counts.
func (it *symHashJoinIter) fetch() ([]storage.Row, error) {
	if err := it.db.checkCancel(); err != nil {
		return nil, err
	}
	start := time.Now()
	b, ok := <-it.out
	it.waitNanos += time.Since(start).Nanoseconds()
	if !ok {
		if err := it.firstErr(); err != nil {
			return nil, err
		}
		if scale := it.db.Faults.MemoryScale(); scale < 1 {
			if buildPages, avail := pagesOf(it.buildRowBytes, int(it.lrows.Load())), it.memPages*scale; buildPages > avail {
				return nil, fmt.Errorf("exec: hash build of %.0f pages exceeds memory grant shrunk to %.1f pages: %w",
					buildPages, avail, qerr.ErrInsufficientMemory)
			}
		}
		it.chargeSpill()
		return nil, nil
	}
	it.batches++
	return b, nil
}

// chargeSpill mirrors hashJoinIter.chargeSpill: when the serial build
// side would not have fit the grant, account the Grace partitioning
// passes over both inputs. The parallel join holds partitions in memory
// regardless; the accountant records what a memory-constrained system
// would have paid, identically to serial execution.
func (it *symHashJoinIter) chargeSpill() {
	if it.spilled {
		return
	}
	it.spilled = true
	buildPages := pagesOf(it.buildRowBytes, int(it.lrows.Load()))
	if buildPages > it.memPages {
		probePages := pagesOf(it.probeRowBytes, int(it.rrows.Load()))
		total := int64(buildPages + probePages)
		it.db.Acc.Write(total)
		it.db.Acc.ReadSeq(total)
	}
}

func (it *symHashJoinIter) NextBatch(dst []storage.Row) (int, error) {
	if !it.started {
		return 0, fmt.Errorf("exec: Hash-Join next before open")
	}
	for it.pos >= len(it.cur) {
		b, err := it.fetch()
		if err != nil {
			return 0, err
		}
		if b == nil {
			return 0, nil
		}
		it.cur, it.pos = b, 0
	}
	n := copy(dst, it.cur[it.pos:])
	it.pos += n
	return n, nil
}

// MemoryHighWater reports the busiest partition's buffered bytes — the
// symmetric join's real footprint is the per-partition tables, which is
// the point: max-over-partitions versus the serial join's whole build
// side.
func (it *symHashJoinIter) MemoryHighWater() int64 {
	var max int64
	for _, w := range it.workers {
		if hw := w.hw.Load(); hw > max {
			max = hw
		}
	}
	return max
}

func (it *symHashJoinIter) Close() error {
	if !it.started || it.closed {
		return nil
	}
	it.closed = true
	close(it.stop)
	// Unblock everyone: drain the output until the closer goroutine shuts
	// it (workers exit on stop, distributors' sends abort on stop), then
	// wait both tiers out.
	for range it.out {
	}
	it.wg.Wait()
	it.dwg.Wait()
	it.record()
	it.span.AddWait(obs.WaitExchangeChannel, it.waitNanos)
	it.span.End()
	for _, w := range it.workers {
		w.ltab, w.rtab = nil, nil
	}
	return nil
}

// record reports the join's per-partition tallies as an exchange.
func (it *symHashJoinIter) record() {
	if it.db.Par == nil {
		return
	}
	st := obs.ExchangeStats{
		Op:              it.node.Op.String(),
		Kind:            "partition-join",
		Batches:         it.batches,
		GatherWaitNanos: it.waitNanos,
		Workers:         make([]obs.Counters, len(it.workers)),
	}
	for i, w := range it.workers {
		s := w.db.Acc.Snapshot()
		st.Workers[i] = obs.Counters{
			Rows:          w.matches,
			SeqPageReads:  s.SeqPageReads,
			RandPageReads: s.RandPageReads,
			PageWrites:    s.PageWrites,
			TupleOps:      s.TupleOps,
			MemBytes:      w.hw.Load(),
		}
	}
	it.db.Par.Record(st)
}
