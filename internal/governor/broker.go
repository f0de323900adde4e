package governor

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

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
	// waitCh is made by the first waiter and closed by the next release;
	// nil while nobody waits.
	waitCh chan struct{}

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
	// requested size; Waits the acquisitions that had to block for pages,
	// counted as they block.
	Grants, Degraded, Waits int64
}

// NewBroker creates a broker over a pool of total pages.
func NewBroker(total float64) *Broker {
	if total < 0 {
		total = 0
	}
	return &Broker{total: total}
}

// Acquire grants between min and want pages, waiting up to timeout until
// the pool can cover at least min; the timer starts only when it has to
// wait. It returns the granted page count. An expired wait fails with an
// error wrapping qerr.ErrAdmission, a load-shedding decision; a context
// that ends first fails with the qerr context taxonomy. Either way nothing
// is granted. want <= 0 is a zero grant that always succeeds; min is
// clamped into (0, want].
func (b *Broker) Acquire(ctx context.Context, want, min float64, timeout time.Duration) (float64, error) {
	if want <= 0 {
		return 0, nil
	}
	if min <= 0 || min > want {
		min = want
	}
	var timer *time.Timer
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
			if timer != nil {
				timer.Stop()
			}
			if b.outstanding > b.highWater {
				b.highWater = b.outstanding
			}
			b.mu.Unlock()
			return grant, nil
		}
		if b.waitCh == nil {
			b.waitCh = make(chan struct{})
		}
		if timer == nil {
			b.waits++
			timer = time.NewTimer(timeout)
		}
		ch := b.waitCh
		b.mu.Unlock()
		select {
		case <-ctx.Done():
			timer.Stop()
			return 0, qerr.FromContext(ctx.Err())
		case <-timer.C:
			return 0, fmt.Errorf("governor: grant wait for %.0f pages (floor %.0f) exceeded %v: %w",
				want, min, timeout, qerr.ErrAdmission)
		case <-ch:
		}
		b.mu.Lock()
	}
}

// Release returns a grant to the pool and wakes every waiter.
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
	if b.waitCh != nil {
		close(b.waitCh)
		b.waitCh = nil
	}
	b.mu.Unlock()
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
