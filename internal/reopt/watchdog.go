package reopt

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dynplan/internal/qerr"
	"dynplan/internal/storage"
)

// StartWatchdog starts the progress watchdog over one execution attempt:
// a goroutine polls the accountant's tuple counter (progress measured in
// tuples advanced, not wall time — a slow query advances, a stuck one does
// not) and cancels the returned context with a qerr.ErrNoProgress cause
// when no tuples advance for the policy's no-progress timeout.
//
// The returned stop function must be called when the attempt ends; it
// waits for the goroutine to exit (the chaos soak asserts stable goroutine
// counts) and is safe to call more than once. A zero timeout returns the
// parent unchanged with a no-op stop.
func (c *Controller) StartWatchdog(parent context.Context, acc *storage.Accountant) (context.Context, func()) {
	timeout := c.pol.NoProgressTimeout
	if timeout <= 0 || acc == nil {
		return parent, func() {}
	}
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancelCause(parent)
	poll := timeout / 4
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	if poll > 100*time.Millisecond {
		poll = 100 * time.Millisecond
	}
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(poll)
		defer ticker.Stop()
		last := acc.TupleOps()
		lastChange := time.Now()
		for {
			select {
			case <-stopCh:
				return
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			if cur := acc.TupleOps(); cur != last {
				last = cur
				lastChange = time.Now()
				continue
			}
			if time.Since(lastChange) >= timeout {
				c.noteStall()
				cancel(fmt.Errorf("%w: no tuples advanced in %v", qerr.ErrNoProgress, timeout))
				return
			}
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			close(stopCh)
			<-done
		})
		cancel(context.Canceled)
	}
	return ctx, stop
}

// noteStall counts one watchdog trip.
func (c *Controller) noteStall() {
	c.mu.Lock()
	c.stalls++
	c.mu.Unlock()
}
