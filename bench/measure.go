package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// memCounters are the cumulative allocation and GC counters of the
// process executing the queries (runtime.MemStats, read in-process or
// from obsd's /debug/vars).
type memCounters struct {
	Mallocs      uint64
	TotalAlloc   uint64
	NumGC        uint32
	PauseTotalNs uint64
}

func readMemCounters() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{Mallocs: m.Mallocs, TotalAlloc: m.TotalAlloc, NumGC: m.NumGC, PauseTotalNs: m.PauseTotalNs}
}

// setupRounds is how many times a run sets the workload up from nothing;
// setup_s is the median, the last round's target serves the timed phase.
const setupRounds = 5

// minPasses is the fewest timed passes a run makes however short
// -seconds is: a per-op median needs at least three samples to outvote
// one disturbed pass.
const minPasses = 3

// passBuf holds what one replay of the op list observed, by op index.
type passBuf struct {
	start []time.Time
	latUS []float64
	out   []outcome
	errs  []error
}

func newPassBuf(n int) passBuf {
	return passBuf{start: make([]time.Time, n), latUS: make([]float64, n), out: make([]outcome, n), errs: make([]error, n)}
}

// phase is the outcome of replaying the op list for a number of passes.
type phase struct {
	// passes[k] is pass k's observations; passS[k] its wall time with all
	// clients running.
	passes []passBuf
	passS  []float64
	// attempted and failed count ops; an op fails when it errors or
	// returns a different row count than on the reference pass.
	attempted, failed int
	firstErr          error
	mem               memCounters // delta over the phase
}

// latUS returns the passes x ops latency matrix.
func (p *phase) latUS() [][]float64 {
	out := make([][]float64, len(p.passes))
	for k := range p.passes {
		out[k] = p.passes[k].latUS
	}
	return out
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// pass replays the op list once, each client running its share in list
// order, and records every op's start, latency in microseconds and
// outcome.
func pass(ctx context.Context, t target, w *workload, b passBuf) time.Duration {
	one := func(client int) {
		for i := client; i < len(w.ops); i += w.clients {
			b.start[i] = time.Now()
			b.out[i], b.errs[i] = t.do(ctx, client, i)
			b.latUS[i] = float64(time.Since(b.start[i]).Nanoseconds()) / 1e3
		}
	}
	start := time.Now()
	if w.clients == 1 {
		one(0) // no goroutine hand-off inside a single-client measurement
	} else {
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				one(c)
			}()
		}
		wg.Wait()
	}
	return time.Since(start)
}

// setUp builds the target and runs the warm-up pass whose outcomes
// become the reference every later pass is compared with.
func setUp(ctx context.Context, w *workload, env *environment) (target, []outcome, error) {
	var t target
	var err error
	if w.http {
		t, err = newRemote(ctx, w, env)
	} else {
		t, err = newLocal(w)
	}
	if err != nil {
		return nil, nil, err
	}
	b := newPassBuf(len(w.ops))
	pass(ctx, t, w, b)
	for i, err := range b.errs {
		if err != nil {
			_ = t.close() // the op error is the one worth reporting
			return nil, nil, fmt.Errorf("warm-up op %d (%s): %w", i, w.statements[w.ops[i].stmt].sql, err)
		}
	}
	return t, b.out, nil
}

// setUpMedian sets the workload up setupRounds times and returns the
// last target with the median set-up time in seconds.
func setUpMedian(ctx context.Context, w *workload, env *environment, rounds int) (target, []outcome, float64, error) {
	var (
		t     target
		seen  []outcome
		times []float64
	)
	for r := 0; r < rounds; r++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, nil, 0, err
			}
		}
		runtime.GC() // each round starts from a collected heap, like the first
		t0 := time.Now()
		var err error
		if t, seen, err = setUp(ctx, w, env); err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return t, seen, median(times), nil
}

// replay runs timed passes until at least `seconds` have been measured
// and at least `least` passes made.
func replay(ctx context.Context, t target, w *workload, seen []outcome, seconds float64, least int) (*phase, error) {
	n := len(w.ops)
	p := &phase{}
	runtime.GC()
	before, err := t.memory(ctx)
	if err != nil {
		return nil, err
	}
	for measured := 0.0; len(p.passS) < least || measured < seconds; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := newPassBuf(n)
		d := pass(ctx, t, w, b).Seconds()
		measured += d
		p.passes = append(p.passes, b)
		p.passS = append(p.passS, d)
		p.attempted += n
		for i := range b.out {
			switch {
			case b.errs[i] != nil:
				p.fail(fmt.Errorf("op %d: %w", i, b.errs[i]))
			case b.out[i].rows != seen[i].rows:
				p.fail(fmt.Errorf("op %d returned %d rows, %d on the reference pass", i, b.out[i].rows, seen[i].rows))
			}
		}
	}
	after, err := t.memory(ctx)
	if err != nil {
		return nil, err
	}
	p.mem = memCounters{
		Mallocs:      after.Mallocs - before.Mallocs,
		TotalAlloc:   after.TotalAlloc - before.TotalAlloc,
		NumGC:        after.NumGC - before.NumGC,
		PauseTotalNs: after.PauseTotalNs - before.PauseTotalNs,
	}
	return p, nil
}

// verifyAll checks every op of the list against the oracle and returns
// how many disagreed and how long checking took.
func verifyAll(ctx context.Context, t target, w *workload, seen []outcome) (failed int, first error, seconds float64) {
	t0 := time.Now()
	for i, o := range w.ops {
		if err := t.verify(ctx, i, seen[i]); err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("op %d (%s): %w", i, w.statements[o.stmt].sql, err)
			}
		}
	}
	return failed, first, time.Since(t0).Seconds()
}
