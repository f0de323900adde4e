package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
)

// runConfig is one run: one workload, one seed, traced or not.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks the run to a 20-op list, one set-up and the fewest
	// passes: it checks that every code path works, not how fast.
	smoke bool
}

// result is the last line a run prints, in the driver's shape.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// err carries the first failure for the human reading stderr.
	err error
}

const smokeOps = 20

// run executes one run and always closes what it opened.
func run(ctx context.Context, cfg runConfig, env *environment) (res *result, err error) {
	def, ok := findDef(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(env.outDir, 0o755); err != nil {
		return nil, err
	}
	// One P for the benchmark process (and one for obsd, see startServer).
	// On a shared 2-vCPU box the hypervisor deschedules whichever vCPU
	// runs the second P's GC workers, and the mutator stalls with them:
	// measured on startup_heavy, the run-to-run spread of the median over
	// ops fell from 27 % to 9 % and of the p99 over ops from 186 % to 15 %
	// with one P.
	runtime.GOMAXPROCS(1)
	nOps, rounds := 0, setupRounds
	if cfg.smoke {
		nOps, rounds = smokeOps, 1
	}
	w := def.build(cfg.seed, nOps)
	t, seen, setupS, err := setUpMedian(ctx, w, env, rounds)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := t.close(); cerr != nil {
			res, err = nil, errors.Join(err, cerr)
		}
	}()
	if cfg.trace {
		return runTraced(ctx, cfg, env, w, t, seen)
	}

	p, err := replay(ctx, t, w, seen, cfg.seconds, minPasses)
	if err != nil {
		return nil, err
	}
	bad, verr, _ := verifyAll(ctx, t, w, seen)
	ops := float64(p.attempted)
	opUS := perOpLatency(p.latUS())
	res = &result{
		Attempted: p.attempted + len(w.ops),
		Failed:    p.failed + bad,
		Metrics: report(endToEnd, map[string]float64{
			"setup_s":         setupS,
			"op_p50_us":       median(opUS),
			"op_p95_us":       quantile(opUS, 0.95),
			"ops_per_s":       opsPerSecond(opUS, w.clients),
			"allocs_per_op":   float64(p.mem.Mallocs) / ops,
			"alloc_kb_per_op": float64(p.mem.TotalAlloc) / 1024 / ops,
		}),
		err: errors.Join(p.firstErr, verr),
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// opsPerSecond is the closed loop's throughput at the per-op latencies:
// ops per pass over the pass time rebuilt from them, which is the slowest
// client's sum. (The median of the measured pass times carries every
// disturbance that hit any op of a pass; its run-to-run spread was two to
// three times wider.)
func opsPerSecond(opUS []float64, clients int) float64 {
	slowest := 0.0
	for c := 0; c < clients; c++ {
		total := 0.0
		for i := c; i < len(opUS); i += clients {
			total += opUS[i]
		}
		slowest = max(slowest, total)
	}
	return float64(len(opUS)) / (slowest / 1e6)
}
