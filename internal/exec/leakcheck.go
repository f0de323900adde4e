package exec

import (
	"fmt"
	"sync"

	"dynplan/internal/physical"
)

// LeakChecker is a test utility that verifies every iterator opened during
// an execution is closed again, including when Open or NextBatch fails
// mid-pipeline. Install it on a DB before building plans:
//
//	lc := exec.NewLeakChecker()
//	db.Wrap = lc.Wrap
//	... run plans ...
//	if leaked := lc.Leaked(); len(leaked) > 0 { ... }
//
// One checker may be shared by concurrent queries; each iterator it wraps
// belongs to the query that compiled it, so Leaked must run after those
// queries return.
type LeakChecker struct {
	mu    sync.Mutex
	iters []*leakIter
}

// NewLeakChecker returns an empty checker.
func NewLeakChecker() *LeakChecker { return &LeakChecker{} }

// Wrap decorates one compiled iterator; it has the signature of DB.Wrap.
func (lc *LeakChecker) Wrap(it Iterator, n *physical.Node) Iterator {
	w := &leakIter{inner: it, op: n.Label()}
	lc.mu.Lock()
	lc.iters = append(lc.iters, w)
	lc.mu.Unlock()
	return w
}

// Leaked returns a description of every iterator that was opened but
// never closed, in wrap order.
func (lc *LeakChecker) Leaked() []string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	var out []string
	for _, w := range lc.iters {
		if w.opens > 0 && !w.closed {
			out = append(out, fmt.Sprintf("%s (opened %d times, never closed)", w.op, w.opens))
		}
	}
	return out
}

// Wrapped returns how many iterators the checker has decorated.
func (lc *LeakChecker) Wrapped() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return len(lc.iters)
}

// leakIter records the open/close lifecycle of one iterator instance.
type leakIter struct {
	inner Iterator
	op    string

	opens  int
	closed bool
}

func (w *leakIter) Open() error {
	w.opens++
	w.closed = false
	return w.inner.Open()
}

func (w *leakIter) NextBatch(dst []int32) (int, error) {
	return w.inner.NextBatch(dst)
}

func (w *leakIter) Close() error {
	w.closed = true
	return w.inner.Close()
}
