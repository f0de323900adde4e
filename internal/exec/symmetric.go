package exec

import (
	"sync"
	"sync/atomic"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/storage"
)

// This file is the symmetric streaming hash join: Hash-Join compiled for
// parallel execution. Two distributor goroutines drain the inputs
// concurrently and hash-route every row to one of DOP partitions; each
// partition keeps a hash table per side, inserting each arriving row into
// its side's table and probing the other's, so matches stream out as soon
// as both halves have arrived — neither input is materialized in full
// before results flow, which is what lets the join live under the
// governor's degradable memory grants (the paper's low-memory choose-plan
// branches, applied to pipelining).
//
// The join is an unordered exchange (exchange.go) whose workers are its
// partitions: the exchange's setup hook starts the distributors, and its
// done hook runs the serial join's end-of-probe bookkeeping once the
// stream ends. Worker lifecycle, folding, tracing and the per-worker
// report are the gather's own.
//
// Equivalence with the serial join is exact, not statistical. A matching
// pair (l, r) hashes to the same partition on both sides and is emitted
// by exactly one partition exactly once (insert-then-probe is atomic
// within a partition's single goroutine). The accountant charges are the
// serial join's to the unit — one tuple op per arriving row, one per
// emitted match, the same Grace-spill formula at end of stream — so digest
// equality AND accountant-total equality against serial execution are
// testable invariants, not aspirations.

// symBatch is one unit of distributor→partition traffic: a run of rows
// from one side, or that side's end-of-stream marker.
type symBatch struct {
	rows []storage.Row
	side int // 0 = left (serial build side), 1 = right
	eos  bool
}

// symJoin is the join's shared state: both inputs with the distributor
// clones they were compiled under, and per open what each distributor
// reports — written before its end-of-stream broadcast, read by done once
// every goroutine has exited.
type symJoin struct {
	db     *DB
	inputs [2]Iterator
	dbs    [2]*DB
	cols   [2]int
	parts  int
	hashSizes

	errs [2]error
	rows [2]int
}

// buildSymmetricHashJoin compiles Hash-Join into the streaming symmetric
// variant. Each input subtree is compiled under its own DB clone because
// it will be drained on its own distributor goroutine; nested operators
// (including further parallel scans and joins) inherit the clone.
func (db *DB) buildSymmetricHashJoin(n *physical.Node, b *bindings.Bindings) (Iterator, Schema, error) {
	j := &symJoin{db: db, parts: db.Parallel, hashSizes: newHashSizes(n, b)}
	var schemas [2]Schema
	for side, attr := range [2]string{n.LeftAttr, n.RightAttr} {
		j.dbs[side] = db.workerClone()
		it, s, err := j.dbs[side].Build(n.Children[side], b)
		if err != nil {
			return nil, nil, err
		}
		if j.cols[side], err = s.Index(attr); err != nil {
			return nil, nil, err
		}
		j.inputs[side], schemas[side] = it, s
	}
	ex := &exchangeIter{db: db, node: n, kind: "partition-join", setup: j.setup, done: j.done}
	return ex, db.joinSchema(schemas[0], schemas[1]), nil
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

// setup builds one single-attempt worker per partition — a partition's
// input is a one-shot stream, so it cannot be re-read on retry — and
// starts the two distributors under the exchange's wait group.
func (j *symJoin) setup(stop <-chan struct{}, wg *sync.WaitGroup) ([]*exchangeWorker, error) {
	j.errs, j.rows = [2]error{}, [2]int{}
	parts := make([]*partition, j.parts)
	ws := make([]*exchangeWorker, j.parts)
	for i := range ws {
		wdb := j.db.workerClone()
		parts[i] = &partition{j: j, db: wdb, in: make(chan symBatch, 2), stop: stop}
		ws[i] = &exchangeWorker{id: i, db: wdb, it: parts[i], oneShot: true}
	}
	wg.Add(2)
	for side := range 2 {
		go j.distribute(side, parts, stop, wg)
	}
	return ws, nil
}

// distribute drains one input on its own goroutine, routing rows to the
// partition owning their key. Whatever happens — end of stream, error,
// teardown — it broadcasts the side's EOS marker to every partition, so
// partitions always see two markers and never block the shutdown path.
// Rows are forwarded and stored by reference: rows are immutable (scans
// return stored rows, joins carve theirs from slabs they never rewrite).
func (j *symJoin) distribute(side int, parts []*partition, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	send := func(p int, b symBatch) bool {
		select {
		case parts[p].in <- b:
			return true
		case <-stop:
			return false
		}
	}
	src, sdb, col := j.inputs[side], j.dbs[side], j.cols[side]
	var last storage.AccountSnapshot
	err := func() error {
		if err := src.Open(); err != nil {
			return err
		}
		bins := make([][]storage.Row, j.parts)
		buf := make([]storage.Row, batchRows)
		for {
			n, err := src.NextBatch(buf)
			last = foldAccount(j.db.Acc, sdb.Acc, last)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			j.rows[side] += n
			for _, row := range buf[:n] {
				p := partitionOf(row[col], j.parts)
				bins[p] = append(bins[p], row)
				if len(bins[p]) >= batchRows {
					if !send(p, symBatch{rows: bins[p], side: side}) {
						return nil
					}
					bins[p] = nil
				}
			}
		}
		for p, bin := range bins {
			if len(bin) > 0 && !send(p, symBatch{rows: bin, side: side}) {
				return nil
			}
		}
		return nil
	}()
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	foldAccount(j.db.Acc, sdb.Acc, last)
	j.errs[side] = err
	for p := range parts {
		send(p, symBatch{side: side, eos: true})
	}
}

// done ends the stream: it surfaces the first failure, distributors first
// (theirs usually caused the partitions'), then runs the serial join's
// end-of-probe bookkeeping over the full input counts — the memory-shrink
// check and the Grace-spill charge.
func (j *symJoin) done(workerErr error) error {
	for _, err := range j.errs {
		if err != nil {
			return err
		}
	}
	if workerErr != nil {
		return workerErr
	}
	if err := j.buildFits(j.db, j.rows[0]); err != nil {
		return err
	}
	j.graceSpill(j.db.Acc, j.rows[0], j.rows[1])
	return nil
}

// partition is one join partition, run as an exchange worker's iterator:
// it inserts each arriving row into its side's table, probes the other
// side's, and hands the matches out in batches.
type partition struct {
	j    *symJoin
	db   *DB
	in   chan symBatch
	stop <-chan struct{}

	tabs [2]map[int64][]storage.Row
	rows [2]int
	eos  int
	hw   atomic.Int64
	out  slab
	pend []storage.Row // matches not yet handed out, from pos on
	pos  int
}

func (p *partition) Open() error {
	p.tabs = [2]map[int64][]storage.Row{make(map[int64][]storage.Row), make(map[int64][]storage.Row)}
	return nil
}

// NextBatch hands out pending matches, reading input batches until some
// arrive; it ends once both sides' markers have arrived, or when the
// exchange tears down.
func (p *partition) NextBatch(dst []storage.Row) (int, error) {
	for p.pos == len(p.pend) {
		if p.eos == 2 {
			return 0, nil
		}
		p.pend, p.pos = p.pend[:0], 0
		var b symBatch
		select {
		case b = <-p.in:
		case <-p.stop:
			return 0, nil
		}
		if b.eos {
			p.eos++
			continue
		}
		if err := p.db.checkCancel(); err != nil {
			return 0, err
		}
		p.insert(b)
	}
	n := copy(dst, p.pend[p.pos:])
	p.pos += n
	return n, nil
}

// insert adds a batch to its side's table, probing the other side's for
// each row: one tuple op per arriving row and one per match.
func (p *partition) insert(b symBatch) {
	col, own, other := p.j.cols[b.side], p.tabs[b.side], p.tabs[1-b.side]
	for _, row := range b.rows {
		p.db.Acc.Tuples(1)
		k := row[col]
		own[k] = append(own[k], row)
		for _, m := range other[k] {
			p.db.Acc.Tuples(1)
			if b.side == 0 {
				p.pend = append(p.pend, p.out.concat(row, m))
			} else {
				p.pend = append(p.pend, p.out.concat(m, row))
			}
		}
	}
	p.rows[b.side] += len(b.rows)
	p.hw.Store(int64(p.rows[0])*int64(p.j.buildRowBytes) + int64(p.rows[1])*int64(p.j.probeRowBytes))
}

// MemoryHighWater reports the partition's buffered bytes; the exchange
// reports its busiest partition's — the symmetric join's real footprint,
// against the serial join's whole build side.
func (p *partition) MemoryHighWater() int64 { return p.hw.Load() }

// Close releases the tables and keeps draining the queue until both
// sides' markers arrive — after an error too — so the distributors' sends
// always complete and teardown cannot deadlock; it returns early only when
// the exchange tears down.
func (p *partition) Close() error {
	p.tabs, p.pend = [2]map[int64][]storage.Row{}, nil
	for p.eos < 2 {
		select {
		case b := <-p.in:
			if b.eos {
				p.eos++
			}
		case <-p.stop:
			return nil
		}
	}
	return nil
}
