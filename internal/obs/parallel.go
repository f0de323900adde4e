package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file is the observability side of intra-query parallelism: the
// per-execution collector the exchange operators report into, the
// ParallelStats summary attached to an ExecResult, and the EXPLAIN
// ANALYZE `PARALLEL` rendering. Per-worker tallies are plain Counters —
// each worker runs over a private accountant, so the figures are exact,
// not sampled — and everything derived from them (skew, critical-path
// seconds) is deterministic given the plan and data.

// ExchangeStats describes one exchange operator's run: which plan
// operator it parallelized, the gather kind, and each worker's tally.
type ExchangeStats struct {
	Op  string `json:"op"`
	Rel string `json:"rel,omitempty"`
	// Kind is the exchange flavor: "gather" (unordered merge of
	// partitioned heap-scan workers) or "ordered-gather" (concatenating
	// merge of B-tree scan workers, preserving index order).
	Kind    string `json:"kind"`
	Batches int64  `json:"batches,omitempty"`
	// GatherWaitNanos is real time the consumer spent blocked on worker
	// batches — the exchange's coordination overhead. It is the one
	// wall-clock field here and is stripped from committed bench records.
	GatherWaitNanos int64      `json:"gather_wait_ns,omitempty"`
	Workers         []Counters `json:"workers"`
	// WorkerRetries counts partition re-runs the exchange's workers
	// absorbed (per-worker fault-domain retries); RetryBackoffNanos lists
	// the nominal pause before each — computed deterministically from the
	// retry policy's seed, not measured, so records stay byte-identical.
	WorkerRetries     int64   `json:"worker_retries,omitempty"`
	RetryBackoffNanos []int64 `json:"retry_backoff_ns,omitempty"`
}

// Rows returns the total rows the exchange's workers produced.
func (e ExchangeStats) Rows() int64 {
	var n int64
	for _, w := range e.Workers {
		n += w.Rows
	}
	return n
}

// Skew is the balance figure of the partitioning: the busiest worker's
// rows over the per-worker mean. 1.0 is perfect balance; an exchange
// that produced no rows reports 0.
func (e ExchangeStats) Skew() float64 {
	total := e.Rows()
	if total == 0 || len(e.Workers) == 0 {
		return 0
	}
	var max int64
	for _, w := range e.Workers {
		if w.Rows > max {
			max = w.Rows
		}
	}
	mean := float64(total) / float64(len(e.Workers))
	return float64(max) / mean
}

// WorkerSeconds converts each worker's tally to simulated seconds under
// the cost-model rates.
func (e ExchangeStats) WorkerSeconds(r CostRates) []float64 {
	out := make([]float64, len(e.Workers))
	for i, w := range e.Workers {
		out[i] = w.SimulatedSeconds(r)
	}
	return out
}

// key orders exchanges for rendering and aggregation by what they are,
// not by the order the plan happened to close them in.
func (e ExchangeStats) key() string {
	return e.Kind + "|" + e.Op + "|" + e.Rel
}

// ParallelExec collects exchange reports for one execution. Record is
// mutex-guarded, so the collector does not depend on which goroutine
// closes an exchange, and nil-safe — a serial execution holds a nil
// collector and pays one pointer check.
type ParallelExec struct {
	mu        sync.Mutex
	exchanges []ExchangeStats
}

// Record adds one exchange's report; no-op on a nil receiver.
func (p *ParallelExec) Record(st ExchangeStats) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.exchanges = append(p.exchanges, st)
}

// Stats freezes the collected reports into the summary attached to an
// ExecResult; nil on a nil receiver. The exchanges are sorted into a
// deterministic order.
func (p *ParallelExec) Stats(dop, maxDOP int, grant, partPages float64, reason string) *ParallelStats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	ex := make([]ExchangeStats, len(p.exchanges))
	copy(ex, p.exchanges)
	p.mu.Unlock()
	sort.SliceStable(ex, func(i, j int) bool { return ex[i].key() < ex[j].key() })
	st := &ParallelStats{
		DOP: dop, MaxDOP: maxDOP,
		GrantPages: grant, PartitionPages: partPages,
		Reason: reason, Exchanges: ex,
	}
	for _, e := range ex {
		st.WorkerRetries += e.WorkerRetries
	}
	return st
}

// ParallelStats is the parallel-execution section of an ExecResult: the
// degree of parallelism chosen at activation, why, and every exchange's
// per-worker tallies.
type ParallelStats struct {
	// DOP is the worker count the execution ran with; 1 means the query
	// ran serial (the Reason says why).
	DOP    int `json:"dop"`
	MaxDOP int `json:"max_dop"`
	// GrantPages is the memory grant the DOP was derived from, and
	// PartitionPages each worker's share of it.
	GrantPages     float64 `json:"grant_pages"`
	PartitionPages float64 `json:"partition_pages,omitempty"`
	// Reason records the selection: "grant" (the grant funded DOP
	// workers), "grant-limited" (the grant only funded one), "cost" (the
	// cost model priced the parallel alternative higher), or "degraded"
	// (the graceful-degradation ladder capped the DOP after a fault).
	Reason    string          `json:"reason,omitempty"`
	Exchanges []ExchangeStats `json:"exchanges,omitempty"`
	// WorkerRetries is the total partition re-runs the execution's
	// exchange workers absorbed without escalating — the per-worker
	// fault-domain account; 0 means every partition ran clean first try.
	WorkerRetries int64 `json:"worker_retries,omitempty"`
}

// MaxSkew returns the worst partition skew across the exchanges.
func (s *ParallelStats) MaxSkew() float64 {
	if s == nil {
		return 0
	}
	max := 0.0
	for _, e := range s.Exchanges {
		if sk := e.Skew(); sk > max {
			max = sk
		}
	}
	return max
}

// CriticalPathSeconds prices the parallel execution under the cost
// model: start from the serial-equivalent total (the accountant's figure
// — parallelism never changes what is charged, only who charges it),
// then for each exchange replace its workers' summed seconds with the
// slowest worker's, since the workers overlap. The result is the
// simulated wall-clock analogue a speedup is measured against.
func (s *ParallelStats) CriticalPathSeconds(serialTotal float64, r CostRates) float64 {
	if s == nil {
		return serialTotal
	}
	out := serialTotal
	for _, e := range s.Exchanges {
		sum, max := 0.0, 0.0
		for _, w := range e.WorkerSeconds(r) {
			sum += w
			if w > max {
				max = w
			}
		}
		out += max - sum
	}
	if out < 0 {
		return 0
	}
	return out
}

// RenderParallel renders the PARALLEL section of EXPLAIN ANALYZE; nil
// when the execution ran without the parallel machinery.
func RenderParallel(s *ParallelStats) []string {
	if s == nil {
		return nil
	}
	head := fmt.Sprintf("PARALLEL dop=%d max-dop=%d grant=%.0f pages (reason: %s)",
		s.DOP, s.MaxDOP, s.GrantPages, s.Reason)
	if s.WorkerRetries > 0 {
		head += fmt.Sprintf(" worker-retries=%d", s.WorkerRetries)
	}
	lines := []string{head}
	for _, e := range s.Exchanges {
		rows := make([]string, len(e.Workers))
		for i, w := range e.Workers {
			rows[i] = fmt.Sprintf("%d", w.Rows)
		}
		target := e.Op
		if e.Rel != "" {
			target += "(" + e.Rel + ")"
		}
		line := fmt.Sprintf("  exchange %s %s: workers=%d rows=[%s] skew=%.2f batches=%d",
			e.Kind, target, len(e.Workers), strings.Join(rows, " "), e.Skew(), e.Batches)
		if e.WorkerRetries > 0 {
			line += fmt.Sprintf(" worker-retries=%d", e.WorkerRetries)
		}
		lines = append(lines, line)
	}
	return lines
}
