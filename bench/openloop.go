package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// The open-loop sweep: a diagnostic of http_service's traced run. A
// closed loop slows down with the server and so hides queueing; here
// requests are due on a Poisson schedule whatever the server does, and
// each is timed from when it was due, so a stall is charged to every
// request that waited behind it.

// openRates are the offered rates in requests per second, and
// openLimitUS the p99 a rate must meet to count as sustained.
var openRates = []float64{50, 100, 200}

const openLimitUS = 50_000

type openResult struct {
	// latUS[k] is completion minus due time of request k; lateUS[k] is
	// how long after its due time the generator handed it to a
	// connection's queue.
	latUS, lateUS []float64
	failed        int
	firstErr      error
}

// openLoop offers rate requests per second for the given time over the
// workload's connections and returns every request's latency.
func (r *remote) openLoop(ctx context.Context, rate, seconds float64, seed int64) openResult {
	n := max(1, int(rate*seconds))
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n) // offsets from the sweep's start
	at := 0.0
	for k := range due {
		at += rng.ExpFloat64() / rate
		due[k] = time.Duration(at * float64(time.Second))
	}
	res := openResult{latUS: make([]float64, n), lateUS: make([]float64, n)}
	errs := make([]error, n)

	work := make(chan int, n) // sized to the number of sends: the generator never blocks on a busy server
	var wg sync.WaitGroup
	start := time.Now()
	for c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				_, errs[k] = r.do(ctx, c, k%len(r.w.ops))
				res.latUS[k] = float64((time.Since(start) - due[k]).Nanoseconds()) / 1e3
			}
		}()
	}
	for k := range due {
		if d := due[k] - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		res.lateUS[k] = float64((time.Since(start) - due[k]).Nanoseconds()) / 1e3
		work <- k
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		}
	}
	return res
}
