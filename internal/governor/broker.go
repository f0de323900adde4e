package governor

import (
	"context"
	"fmt"
	"math"
	"sync"

	"dynplan/internal/qerr"
)

// Broker is the memory grant broker: a bounded pool of buffer pages that
// concurrent queries draw start-up memory grants from. The paper's central
// run-time binding is the memory available when a query starts (§4, §6.2);
// under concurrency that binding is a *contended* resource, so instead of
// a static per-query number, each query asks the broker and receives
// whatever the pool can spare — possibly less than it asked for, never
// less than its floor. The degraded grant feeds the activation bindings,
// so choose-plan resolution genuinely selects low-memory alternatives
// under pressure.
//
// All methods are safe for concurrent use.
type Broker struct {
	mu          sync.Mutex
	total       float64
	outstanding float64
	waitCh      chan struct{} // closed and replaced on every release/resize

	// counters
	grants    int64
	degraded  int64
	waits     int64
	highWater float64
}

// BrokerStats is a snapshot of the broker's counters.
type BrokerStats struct {
	// TotalPages is the pool size; OutstandingPages the pages currently
	// granted and not yet released.
	TotalPages, OutstandingPages float64
	// HighWaterPages is the largest OutstandingPages ever observed.
	HighWaterPages float64
	// Grants counts grants issued; Degraded those issued below the
	// requested size; Waits the acquisitions that had to block for pages.
	Grants, Degraded, Waits int64
}

// NewBroker creates a broker over a pool of total pages.
func NewBroker(total float64) *Broker {
	if total < 0 {
		total = 0
	}
	return &Broker{total: total, waitCh: make(chan struct{})}
}

// Acquire grants between min and want pages, waiting until the pool can
// cover at least min. It returns the granted page count. The context
// bounds the wait: on expiry the error wraps qerr.ErrAdmission (and the
// context's own classification), and nothing is granted. want <= 0 is a
// zero grant that always succeeds; min is clamped into (0, want].
func (b *Broker) Acquire(ctx context.Context, want, min float64) (float64, error) {
	if want <= 0 {
		return 0, nil
	}
	if min <= 0 || min > want {
		min = want
	}
	waited := false
	b.mu.Lock()
	for {
		avail := b.total - b.outstanding
		if avail >= min {
			grant := math.Min(want, avail)
			b.outstanding += grant
			b.grants++
			if grant < want {
				b.degraded++
			}
			if waited {
				b.waits++
			}
			if b.outstanding > b.highWater {
				b.highWater = b.outstanding
			}
			b.mu.Unlock()
			return grant, nil
		}
		ch := b.waitCh
		b.mu.Unlock()
		waited = true
		select {
		case <-ctx.Done():
			// Deliberately not the qerr context taxonomy: a grant-wait
			// timeout is a load-shedding decision (ErrAdmission), not a
			// cancellation of a running query. The caller distinguishes a
			// genuinely canceled parent context itself.
			return 0, fmt.Errorf("governor: grant wait for %.0f pages (floor %.0f) expired: %w (%v)",
				want, min, qerr.ErrAdmission, ctx.Err())
		case <-ch:
		}
		b.mu.Lock()
	}
}

// Release returns a grant to the pool and wakes waiters.
func (b *Broker) Release(pages float64) {
	if pages <= 0 {
		return
	}
	b.mu.Lock()
	b.outstanding -= pages
	if b.outstanding < 0 {
		// Over-release is a caller bug; clamp so the pool never inflates.
		b.outstanding = 0
	}
	b.wakeLocked()
	b.mu.Unlock()
}

// Resize changes the pool size — the knob a shrinking-memory chaos run
// turns. Outstanding grants are unaffected; a shrink below the current
// outstanding total only delays new grants until releases catch up.
func (b *Broker) Resize(total float64) {
	if total < 0 {
		total = 0
	}
	b.mu.Lock()
	b.total = total
	b.wakeLocked()
	b.mu.Unlock()
}

// wakeLocked broadcasts to every waiter; the caller holds the mutex.
func (b *Broker) wakeLocked() {
	close(b.waitCh)
	b.waitCh = make(chan struct{})
}

// Outstanding returns the pages currently granted and not released.
func (b *Broker) Outstanding() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.outstanding
}

// Stats returns a snapshot of the broker's counters.
func (b *Broker) Stats() BrokerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BrokerStats{
		TotalPages:       b.total,
		OutstandingPages: b.outstanding,
		HighWaterPages:   b.highWater,
		Grants:           b.grants,
		Degraded:         b.degraded,
		Waits:            b.waits,
	}
}
