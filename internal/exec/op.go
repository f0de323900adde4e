package exec

import (
	"time"

	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/qerr"
	"dynplan/internal/storage"
)

// memReporter is implemented by iterators that buffer rows (hash-join
// build sides, sort workspaces, spooled temporaries) so the meter can
// record their memory high-water mark.
type memReporter interface {
	MemoryHighWater() int64
}

// opIter is the one decorator every compiled operator runs under.
//
// Errors escaping Open, NextBatch, or Close are wrapped in a qerr.OpError
// naming the plan node (and the base relation it reads, when it reads
// one), so a mid-query failure reports the operator that raised it. The
// innermost (deepest) operator wins — qerr.AtRel never overrides an
// existing OpError — which is the operator closest to the actual fault.
// The node's label is rendered only then, on the error path.
//
// Metered, every protocol call is: one accountant snapshot, injector
// read, and clock read around each call, charging the deltas — inclusive
// of the operator's inputs — to the operator's counters in the run's stats
// tree. Unmetered, metering costs one nil check per call.
type opIter struct {
	db    *DB
	inner Iterator
	node  *physical.Node
	tabs  []*storage.Table // what each position of a tuple points into
	c     *obs.Counters    // nil unless metered
	mem   memReporter
}

func (o *opIter) fail(err error) error {
	if err == nil {
		return nil
	}
	return qerr.AtRel(o.node.Label(), o.node.Rel, err)
}

func (o *opIter) Open() error {
	if o.c == nil {
		return o.fail(o.inner.Open())
	}
	snap, absorbed, start := o.begin()
	err := o.inner.Open()
	o.c.Opens++
	o.end(snap, absorbed, start)
	return o.fail(err)
}

func (o *opIter) NextBatch(dst []int32) (int, error) {
	if o.c == nil {
		n, err := o.inner.NextBatch(dst)
		return n, o.fail(err)
	}
	snap, absorbed, start := o.begin()
	n, err := o.inner.NextBatch(dst)
	o.c.NextCalls++
	o.c.Rows += int64(n)
	o.end(snap, absorbed, start)
	return n, o.fail(err)
}

func (o *opIter) Close() error {
	if o.c == nil {
		return o.fail(o.inner.Close())
	}
	snap, absorbed, start := o.begin()
	err := o.inner.Close()
	o.end(snap, absorbed, start)
	return o.fail(err)
}

// begin snapshots the accountant, fault injector, and clock before a
// metered call into the operator.
func (o *opIter) begin() (storage.AccountSnapshot, int64, time.Time) {
	return o.db.Acc.Snapshot(), o.db.Faults.Stats().Absorbed, time.Now()
}

// end charges the deltas since begin to the operator's counters.
func (o *opIter) end(snap storage.AccountSnapshot, absorbed int64, start time.Time) {
	d := o.db.Acc.Snapshot().Sub(snap)
	o.c.SeqPageReads += d.SeqPageReads
	o.c.RandPageReads += d.RandPageReads
	o.c.PageWrites += d.PageWrites
	o.c.TupleOps += d.TupleOps
	o.c.FaultsAbsorbed += o.db.Faults.Stats().Absorbed - absorbed
	o.c.WallNanos += time.Since(start).Nanoseconds()
	if o.mem != nil {
		if hw := o.mem.MemoryHighWater(); hw > o.c.MemBytes {
			o.c.MemBytes = hw
		}
	}
}
