package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// ChaosQuery is one workload item of a chaos soak: a named query with a
// reference digest computed from an unconstrained, fault-free execution.
// Run executes the query under whatever chaos the soak applies (fault
// injection, degraded memory grants, admission pressure) and returns a
// digest of the result rows; the soak asserts it equals Reference —
// the choose-plan invariant that every alternative computes the same
// result, byte for byte, no matter which branch pressure forced.
//
// The harness stays decoupled from the engine by construction (the root
// package's own tests import it), so Run is a callback and the digest an
// opaque string.
type ChaosQuery struct {
	Name string
	// Run executes the query under chaos. The seed is drawn
	// deterministically from the soak's seed, so runs with per-query
	// randomness (binding draws, retry jitter) reproduce exactly.
	Run func(ctx context.Context, seed int64) (digest string, err error)
	// Reference is the digest of the unconstrained execution.
	Reference string
}

// ChaosConfig parameterizes a soak run.
type ChaosConfig struct {
	// Seed derives every worker's random stream; a fixed seed reproduces
	// the whole soak — query order, per-query seeds, and (through them)
	// fault schedules and retry jitter.
	Seed int64
	// Workers is the number of concurrent client goroutines (default 8).
	Workers int
	// Iterations is how many queries each worker issues (default 25).
	Iterations int
	// Queries is the workload mix; each iteration draws one uniformly.
	Queries []ChaosQuery
	// Rejected classifies an execution error as an acceptable rejection
	// (admission shed, deadline) rather than a failure. Rejections are
	// counted but not failed on; a nil hook accepts no rejections.
	Rejected func(error) bool
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Iterations <= 0 {
		c.Iterations = 25
	}
	return c
}

// ChaosReport is the outcome of a soak.
type ChaosReport struct {
	// Succeeded, Rejected, and Failed partition the issued executions:
	// completed with the correct digest, shed by an acceptable rejection,
	// or anything else (wrong digest, unclassified error).
	Succeeded, Rejected, Failed int
	// Mismatches lists digest divergences (capped at 10) — always a bug:
	// an admitted query must return exactly the unconstrained result.
	Mismatches []string
	// Errors lists the unclassified failures (capped at 10).
	Errors []error
}

func (r *ChaosReport) String() string {
	return fmt.Sprintf("chaos soak: %d succeeded, %d rejected, %d failed",
		r.Succeeded, r.Rejected, r.Failed)
}

// Err returns nil when the soak held its invariants: no failures, no
// digest mismatches, and at least one query actually succeeded (a soak
// where everything was shed proves nothing).
func (r *ChaosReport) Err() error {
	if len(r.Mismatches) > 0 {
		return fmt.Errorf("%s; first mismatch: %s", r, r.Mismatches[0])
	}
	if len(r.Errors) > 0 {
		return fmt.Errorf("%s; first error: %w", r, r.Errors[0])
	}
	if r.Failed > 0 {
		return errors.New(r.String())
	}
	if r.Succeeded == 0 {
		return fmt.Errorf("%s; every execution was rejected", r)
	}
	return nil
}

// Soak drives the chaos workload: Workers goroutines each issue
// Iterations randomized queries concurrently, verifying every admitted
// result against its reference digest. It returns the tally; call ChaosReport.Err for the verdict.
func Soak(ctx context.Context, cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Queries) == 0 {
		return nil, errors.New("harness: chaos soak needs at least one query")
	}
	var (
		mu  sync.Mutex
		rep ChaosReport
		wg  sync.WaitGroup
	)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)))
			for i := 0; i < cfg.Iterations; i++ {
				q := cfg.Queries[rng.Intn(len(cfg.Queries))]
				digest, err := q.Run(ctx, rng.Int63())
				mu.Lock()
				switch {
				case err == nil && digest == q.Reference:
					rep.Succeeded++
				case err == nil:
					rep.Failed++
					if len(rep.Mismatches) < 10 {
						rep.Mismatches = append(rep.Mismatches,
							fmt.Sprintf("%s: digest %q != reference %q", q.Name, digest, q.Reference))
					}
				case cfg.Rejected != nil && cfg.Rejected(err):
					rep.Rejected++
				default:
					rep.Failed++
					if len(rep.Errors) < 10 {
						rep.Errors = append(rep.Errors, fmt.Errorf("%s: %w", q.Name, err))
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return &rep, nil
}

// StableGoroutines samples the goroutine count until it stops shrinking
// (or a short budget expires) and returns it — the way to compare
// before/after counts without racing still-exiting workers.
func StableGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n = m
		} else {
			return n
		}
	}
	return n
}
