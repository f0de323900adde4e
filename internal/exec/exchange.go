package exec

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/qerr"
	"dynplan/internal/storage"
)

// This file is the intra-query parallelism layer: exchange operators that
// split a base-relation scan into DOP partitioned workers and gather their
// streams back into one Volcano iterator; every operator above the scans,
// joins included, runs serial over the gathered streams. The consumer side
// stays a plain Iterator — parents never know their input is parallel —
// which is what lets choose-plan activation, re-optimization guards, and
// the Remedy stage compose with parallel execution unchanged.
//
// Isolation model: every worker goroutine runs over its own shallow DB
// clone (workerClone) with a private accountant, and folds its I/O
// account into the parent's shared atomic accountant one batch at a
// time — so the execution's totals equal the serial totals
// exactly, and the progress watchdog polling the shared accountant sees
// parallel work advance. Collectors and guard hooks are deliberately
// not shared: obs.Counters is single-threaded by design, so worker
// subtrees run unmetered, and the exchange reports per-worker tallies
// itself (obs.ExchangeStats).

// workerClone returns the DB one worker goroutine's scan partition runs
// over: a private accountant, and the shared context, fault injector and
// retry policy — all a partitioned scan reads. Workers build no operators,
// so the catalog, store and every single-threaded hook (collector,
// materialization guards) stay behind.
func (db *DB) workerClone() *DB {
	return &DB{Acc: &storage.Accountant{}, Ctx: db.Ctx, Faults: db.Faults, Retry: db.Retry}
}

// WorkerRetryPolicy bounds the per-worker retry loop: each exchange worker
// is its own fault domain, so a retryable fault (per qerr.Retryable)
// re-runs only that worker's partition instead of aborting the whole
// query. Retries pause under capped exponential backoff with
// deterministically seeded jitter — no global rand, so chaos runs and
// bench records reproduce byte-identically. The zero value (and a nil
// pointer) selects the defaults.
type WorkerRetryPolicy struct {
	// MaxAttempts is the total partition executions tried per worker,
	// including the first (default 3). 1 disables worker retry: the first
	// fault escalates out of the exchange.
	MaxAttempts int
	// Backoff is the base pause before the first retry, doubling per
	// further retry up to MaxBackoff; zero retries immediately (default
	// 100µs).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 32×Backoff).
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic per-worker jitter (default 1).
	JitterSeed int64
}

func (p *WorkerRetryPolicy) withDefaults() WorkerRetryPolicy {
	var out WorkerRetryPolicy
	if p != nil {
		out = *p
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 3
	}
	if p == nil || (out.Backoff == 0 && out.MaxBackoff == 0) {
		out.Backoff = 100 * time.Microsecond
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = 32 * out.Backoff
	}
	if out.JitterSeed == 0 {
		out.JitterSeed = 1
	}
	return out
}

// Backoff is the pause before the retry-th retry (retry ≥ 1) of a retry
// loop: base doubled per retry and capped at maxBackoff, then
// equal-jittered to half its nominal value plus a remainder hashed from
// (seed, worker, retry). Both retry loops share it — an exchange worker
// passes its index, the Remedy stage's whole-query retry passes 0 — so a
// schedule reproduces under a fixed seed with no random state to share
// across goroutines. A non-positive base retries immediately.
func Backoff(base, maxBackoff time.Duration, seed int64, worker, retry int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base << uint(min(retry-1, 16))
	if d > maxBackoff {
		d = maxBackoff
	}
	half := int64(d / 2)
	h := mix64(uint64(seed))
	h = mix64(h + 0x9e3779b97f4a7c15 + uint64(worker))
	h = mix64(h + 0x9e3779b97f4a7c15 + uint64(retry))
	u := float64(h>>11) / float64(1<<53)
	return time.Duration(half + int64(u*float64(half+1)))
}

// mix64 is splitmix64's finalizer: every input bit flips about half the
// output bits, so (seed, worker, retry) one apart hash to unrelated
// fractions.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// foldAccount adds src's charges since last into dst and returns the new
// snapshot; exchange workers call it per batch so the shared account
// advances while they run.
func foldAccount(dst, src *storage.Accountant, last storage.AccountSnapshot) storage.AccountSnapshot {
	cur := src.Snapshot()
	d := cur.Sub(last)
	if d.SeqPageReads != 0 {
		dst.ReadSeq(d.SeqPageReads)
	}
	if d.RandPageReads != 0 {
		dst.ReadRand(d.RandPageReads)
	}
	if d.PageWrites != 0 {
		dst.Write(d.PageWrites)
	}
	if d.TupleOps != 0 {
		dst.Tuples(d.TupleOps)
	}
	return cur
}

// exchangeWorker is one partitioned producer: a private DB clone, the
// partition's iterator, and the tallies the exchange reports when it
// closes. Each worker is its own fault domain — a retryable fault re-runs
// only this partition (see run), so one worker's transient page fault
// never aborts its siblings or the whole query.
type exchangeWorker struct {
	id  int
	db  *DB
	it  Iterator
	out chan []storage.Row // ordered mode: this worker's own stream

	err  error
	rows int64 // rows delivered downstream, across attempts
	// retries and backoffs are the worker's recovery account: attempts
	// beyond the first, and the nominal (pre-sleep, deterministic) pause
	// before each.
	retries  int64
	backoffs []int64
	// folded accumulates exactly the account deltas this worker folded
	// into the shared accountant — the per-worker tally the exchange
	// reports. It diverges from the private accountant only across
	// retries, where the failed attempt's un-folded charges are discarded.
	folded storage.AccountSnapshot
	// torn reports the run ended because stop closed mid-stream: the rows
	// delivered are a prefix, and the tallies must not be cross-checked
	// against a complete partition.
	torn bool
	// span is this worker's trace span (nil when tracing is off): it
	// covers the goroutine's whole life and carries the backoff sleeps as
	// worker-backoff waits.
	span *obs.Span
}

// fold moves the private accountant's charges since last into the shared
// account and the worker's folded tally, returning the new snapshot.
func (w *exchangeWorker) fold(dst *storage.Accountant, last storage.AccountSnapshot) storage.AccountSnapshot {
	cur := foldAccount(dst, w.db.Acc, last)
	d := cur.Sub(last)
	w.folded.SeqPageReads += d.SeqPageReads
	w.folded.RandPageReads += d.RandPageReads
	w.folded.PageWrites += d.PageWrites
	w.folded.TupleOps += d.TupleOps
	return cur
}

// run produces the worker's partition under bounded per-worker retry:
// open, drain in batches, fold the I/O account upward batch by batch,
// send each batch to out. A retryable fault (per qerr.Retryable) discards
// the failed attempt's un-folded charges, backs off (capped exponential,
// deterministic jitter, interruptible by stop and the context), re-opens
// the partition iterator, skips the rows already delivered downstream
// with every skip charge suppressed, and resumes — so the folded totals
// stay exactly the fault-free serial partition's, pages charged once
// each, however many attempts it took. Permanent faults, cancellation,
// and exhausted attempts escalate through w.err. It exits on end of
// stream, on error, or when stop closes (the gather tore down early).
func (w *exchangeWorker) run(out chan<- []storage.Row, stop <-chan struct{}, fold *storage.Accountant) {
	pol := w.db.Retry.withDefaults()
	for attempt := 1; ; attempt++ {
		err := w.attempt(out, stop, fold)
		if err == nil || w.torn || !qerr.Retryable(err) || attempt >= pol.MaxAttempts {
			w.err = err
			return
		}
		// Discard the failed attempt's un-folded charges — including the
		// injected fault's simulated latency — by starting the retry on a
		// fresh private accountant: only charges of successfully delivered
		// batches may reach the shared account, which is what keeps the
		// parallel books identical to the fault-free serial run.
		w.db.Acc = &storage.Accountant{}
		w.retries++
		d := Backoff(pol.Backoff, pol.MaxBackoff, pol.JitterSeed, w.id, int(w.retries))
		w.backoffs = append(w.backoffs, int64(d))
		// The nominal, deterministic pause — the same figure the retry
		// account reports — attributed as this worker's backoff wait.
		w.span.AddWait(obs.WaitWorkerBackoff, int64(d))
		if d > 0 {
			t := time.NewTimer(d)
			var done <-chan struct{}
			if w.db.Ctx != nil {
				done = w.db.Ctx.Done()
			}
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				w.torn = true
				return
			case <-done:
				t.Stop()
				w.err = qerr.FromContext(context.Cause(w.db.Ctx))
				return
			}
		}
	}
}

// attempt runs the partition once, resuming past the rows earlier
// attempts already delivered.
func (w *exchangeWorker) attempt(out chan<- []storage.Row, stop <-chan struct{}, fold *storage.Accountant) error {
	last := w.db.Acc.Snapshot()
	err := func() error {
		if err := w.it.Open(); err != nil {
			return err
		}
		// Resume: re-read the partition up to the rows already delivered
		// downstream without folding anything — the first attempt already
		// charged them. The partition iterators are deterministic (fixed
		// page range, preset RID chunk), so row sent+1 of the re-run is
		// exactly where the failed attempt left off. The skip reads one
		// row per call, so a pushed-down filter stops right after the last
		// delivered row, exactly where a row-at-a-time skip stopped.
		var one [1]storage.Row
		for skipped := int64(0); skipped < w.rows; skipped++ {
			n, err := w.it.NextBatch(one[:])
			if err != nil {
				return err
			}
			if n == 0 {
				return fmt.Errorf("exec: partition shrank on worker retry (%d rows, expected ≥ %d)", skipped, w.rows)
			}
		}
		last = w.db.Acc.Snapshot()
		for {
			buf := make([]storage.Row, batchRows)
			n, nerr := w.it.NextBatch(buf)
			if nerr != nil {
				// Do not fold: the failed vector's charges (and the fault's
				// injected latency) belong to no delivered row.
				return nerr
			}
			last = w.fold(fold, last)
			if n == 0 {
				return nil
			}
			select {
			case out <- buf[:n]:
				w.rows += int64(n)
			case <-stop:
				w.torn = true
				return nil
			}
		}
	}()
	if cerr := w.it.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err == nil && !w.torn {
		w.fold(fold, last)
	}
	return err
}

// counters converts the worker's folded account into a per-worker tally;
// a scan partition buffers no rows, so it reports no memory.
func (w *exchangeWorker) counters() obs.Counters {
	return obs.Counters{
		Rows:          w.rows,
		SeqPageReads:  w.folded.SeqPageReads,
		RandPageReads: w.folded.RandPageReads,
		PageWrites:    w.folded.PageWrites,
		TupleOps:      w.folded.TupleOps,
	}
}

// exchangeIter is the gather side of a partitioned parallel operator: at
// Open it builds DOP workers (setup runs then, not at compile time, so
// re-opens get fresh partitions), starts them, and merges their batch
// streams. Unordered mode interleaves batches as workers produce them;
// ordered mode concatenates the workers' streams in worker order, which
// preserves a global order when the partitions are contiguous ranges of an
// ordered input (the B-tree scan's RID chunks).
type exchangeIter struct {
	db   *DB
	node *physical.Node
	kind string
	// setup builds the workers.
	setup func() ([]*exchangeWorker, error)
	// ordered selects concatenating gather (worker 0's whole stream, then
	// worker 1's, …) instead of arrival-order interleaving.
	ordered bool

	workers []*exchangeWorker
	merged  chan []storage.Row // unordered mode: shared output channel
	stop    chan struct{}
	wg      *sync.WaitGroup
	started bool
	closed  bool

	widx      int // ordered mode: the worker currently being drained
	cur       []storage.Row
	pos       int
	batches   int64
	waitNanos int64
	// span covers the exchange's open-to-close life in the query's trace;
	// concurrent with the Run stage's other work, worker spans beneath it.
	span *obs.Span
}

// openSpans opens the exchange's trace span and one concurrent span per
// worker goroutine; a nil tracer makes this a single pointer check.
func (ex *exchangeIter) openSpans() {
	if ex.db.Trace == nil {
		return
	}
	name := ex.kind
	if ex.node.Rel != "" {
		name += " " + ex.node.Rel
	}
	ex.span = ex.db.Trace.Start(ex.db.Span, name, obs.SpanExchange)
	ex.span.MarkConcurrent()
	for _, w := range ex.workers {
		w.span = ex.db.Trace.Start(ex.span, fmt.Sprintf("worker-%d", w.id), obs.SpanWorker)
		w.span.MarkConcurrent()
	}
}

func (ex *exchangeIter) Open() error {
	if ex.started && !ex.closed {
		if err := ex.Close(); err != nil {
			return err
		}
	}
	ex.stop = make(chan struct{})
	ex.wg = &sync.WaitGroup{}
	ws, err := ex.setup()
	if err != nil {
		return err
	}
	ex.workers = ws
	ex.started, ex.closed = true, false
	ex.widx, ex.cur, ex.pos = 0, nil, 0
	ex.batches, ex.waitNanos = 0, 0
	ex.openSpans()
	if ex.ordered {
		for _, w := range ws {
			w.out = make(chan []storage.Row, 2)
			ex.wg.Add(1)
			go func(w *exchangeWorker) {
				defer ex.wg.Done()
				defer close(w.out)
				defer w.span.End()
				w.run(w.out, ex.stop, ex.db.Acc)
			}(w)
		}
		return nil
	}
	ex.merged = make(chan []storage.Row, len(ws))
	ex.wg.Add(len(ws))
	for _, w := range ws {
		go func(w *exchangeWorker) {
			defer ex.wg.Done()
			defer w.span.End()
			w.run(ex.merged, ex.stop, ex.db.Acc)
		}(w)
	}
	go func(wg *sync.WaitGroup, merged chan []storage.Row) {
		wg.Wait()
		close(merged)
	}(ex.wg, ex.merged)
	return nil
}

// fetch blocks for the next batch from the workers; nil with no error is
// end of stream, after which every worker has exited and its error, if
// any, has been surfaced.
func (ex *exchangeIter) fetch() ([]storage.Row, error) {
	if err := ex.db.checkCancel(); err != nil {
		return nil, err
	}
	if ex.ordered {
		for ex.widx < len(ex.workers) {
			w := ex.workers[ex.widx]
			start := time.Now()
			b, ok := <-w.out
			ex.waitNanos += time.Since(start).Nanoseconds()
			if ok {
				ex.batches++
				return b, nil
			}
			if w.err != nil {
				return nil, w.err
			}
			ex.widx++
		}
		return nil, nil
	}
	start := time.Now()
	b, ok := <-ex.merged
	ex.waitNanos += time.Since(start).Nanoseconds()
	if !ok {
		for _, w := range ex.workers {
			if w.err != nil {
				return nil, w.err
			}
		}
		return nil, nil
	}
	ex.batches++
	return b, nil
}

func (ex *exchangeIter) NextBatch(dst []storage.Row) (int, error) {
	for ex.pos >= len(ex.cur) {
		b, err := ex.fetch()
		if err != nil {
			return 0, err
		}
		if b == nil {
			return 0, nil
		}
		ex.cur, ex.pos = b, 0
	}
	n := copy(dst, ex.cur[ex.pos:])
	ex.pos += n
	return n, nil
}

func (ex *exchangeIter) Close() error {
	if !ex.started || ex.closed {
		return nil
	}
	ex.closed = true
	close(ex.stop)
	// Unblock workers parked on a send, then wait them out. Channels close
	// when their producers exit, so these drains terminate.
	if ex.ordered {
		for _, w := range ex.workers {
			for range w.out {
			}
		}
	} else {
		for range ex.merged {
		}
	}
	ex.wg.Wait()
	ex.record()
	ex.span.AddWait(obs.WaitExchangeChannel, ex.waitNanos)
	ex.span.End()
	return nil
}

// record reports the exchange's per-worker tallies to the execution's
// parallel-stats collector; nil-safe when none is installed.
func (ex *exchangeIter) record() {
	if ex.db.Par == nil {
		return
	}
	st := obs.ExchangeStats{
		Op:              ex.node.Op.String(),
		Rel:             ex.node.Rel,
		Kind:            ex.kind,
		Batches:         ex.batches,
		GatherWaitNanos: ex.waitNanos,
		Workers:         make([]obs.Counters, len(ex.workers)),
	}
	for i, w := range ex.workers {
		st.Workers[i] = w.counters()
		st.WorkerRetries += w.retries
		st.RetryBackoffNanos = append(st.RetryBackoffNanos, w.backoffs...)
	}
	ex.db.Par.Record(st)
}

// buildParallelFileScan compiles File-Scan — optionally with the Filter
// directly above it pushed into the workers — into a partitioned parallel
// scan: the heap file's pages split into DOP contiguous ranges, one
// worker per range, merged by an unordered gather (a heap scan delivers
// no order, so arrival order is free). Page and tuple charges equal the
// serial scan's exactly; only their distribution across workers differs.
func (db *DB) buildParallelFileScan(scan, filter *physical.Node, b *bindings.Bindings) (Iterator, Schema, error) {
	schema, err := db.relSchema(scan.Rel)
	if err != nil {
		return nil, nil, err
	}
	table, err := db.Store.Table(scan.Rel)
	if err != nil {
		return nil, nil, err
	}
	var col int
	var limit float64
	if filter != nil {
		col, limit, err = db.predicate(filter.SelAttr, filter.Var, filter.FixedSel, schema, b)
		if err != nil {
			return nil, nil, err
		}
	}
	node := scan
	if filter != nil {
		node = filter
	}
	dop := db.Parallel
	ex := &exchangeIter{
		db: db, node: node, kind: "gather",
		setup: func() ([]*exchangeWorker, error) {
			pages := table.NumPages()
			ws := make([]*exchangeWorker, dop)
			for i := 0; i < dop; i++ {
				wdb := db.workerClone()
				var it Iterator = &fileScanIter{
					db: wdb, table: table,
					lo: pages * i / dop, hi: pages * (i + 1) / dop,
				}
				if filter != nil {
					it = &filterIter{db: wdb, child: it, col: col, limit: limit}
				}
				ws[i] = &exchangeWorker{id: i, db: wdb, it: it}
			}
			return ws, nil
		},
	}
	return ex, schema, nil
}

// buildParallelBtreeScan compiles B-tree-Scan / Filter-B-tree-Scan into a
// partitioned parallel index scan: the RID range is drained once (the
// same key walk the serial scan performs, charged nothing — RIDs are
// small), split into DOP contiguous chunks, and each worker fetches its
// chunk at one random I/O per record. The ordered concatenating gather
// reassembles the chunks in index order, so the exchange delivers exactly
// the serial scan's order — Merge-Join inputs stay sorted.
func (db *DB) buildParallelBtreeScan(n *physical.Node, b *bindings.Bindings, filtered bool) (Iterator, Schema, error) {
	schema, err := db.relSchema(n.Rel)
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
	lo, hi := math.Inf(-1), math.Inf(1)
	exclusive := false
	if filtered {
		_, hi, err = db.predicate(n.SelAttr, n.Var, n.FixedSel, schema, b)
		if err != nil {
			return nil, nil, err
		}
		exclusive = true
	}
	dop := db.Parallel
	ex := &exchangeIter{
		db: db, node: n, kind: "ordered-gather", ordered: true,
		setup: func() ([]*exchangeWorker, error) {
			drain := &btreeScanIter{
				db: db, table: table, tree: tree,
				lo: lo, hi: hi, exclusiveHi: exclusive,
			}
			if err := drain.Open(); err != nil {
				return nil, err
			}
			rids := drain.rids
			if rids == nil {
				rids = []storage.RID{}
			}
			ws := make([]*exchangeWorker, dop)
			for i := 0; i < dop; i++ {
				wdb := db.workerClone()
				ws[i] = &exchangeWorker{
					id: i, db: wdb,
					it: &btreeScanIter{
						db: wdb, table: table, tree: tree,
						preset: rids[len(rids)*i/dop : len(rids)*(i+1)/dop],
					},
				}
			}
			return ws, nil
		},
	}
	return ex, schema, nil
}
