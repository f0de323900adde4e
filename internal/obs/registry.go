package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the workload observatory's metrics registry: a long-lived,
// concurrency-safe aggregation point the database records every observed
// execution into. Where the Collector is a per-execution window (one query,
// one stats tree), the Registry is the cross-query view — counters,
// gauges, and log-bucketed histograms over the whole workload, keyed by
// operator kind and base relation, plus the interval-calibration table and
// the recent-query ring buffer the HTTP endpoint serves.
//
// Like the Collector, the disabled state is a nil *Registry: every method
// is safe on a nil receiver and the fast path allocates nothing (see
// TestDisabledRegistryAllocatesNothing).

// Counter is a monotonically increasing atomic tally.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d; no-op on a nil receiver.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Load returns the current value; zero on nil.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically set float64 level (pool sizes, high-water marks).
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge's current level; no-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// SetMax raises the gauge to v if v exceeds the current level.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if floatFromBits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, floatBits(v)) {
			return
		}
	}
}

// Load returns the gauge's level; zero on nil.
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

// histBuckets is the number of log2 buckets a histogram holds: bucket 0
// collects non-positive samples, bucket i (i ≥ 1) the samples v with
// 2^(i-1) ≤ v < 2^i, so the full int64 range fits.
const histBuckets = 65

// Histogram is a log-bucketed histogram of non-negative int64 samples
// (latencies in nanoseconds, page counts, row counts). Buckets are powers
// of two, so Record is one atomic add with no allocation and quantiles are
// exact to within a factor of two — tight enough for p50/p95/p99 tail
// tracking across a workload. All methods are nil-safe and safe for
// concurrent use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketOf returns the bucket index for a sample.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketHi returns the largest value bucket b can hold.
func bucketHi(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 64 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<b - 1
}

// Record adds one sample; no-op on a nil receiver.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
	for {
		old := h.max.Load()
		if old >= v {
			return
		}
		if h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all positive samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest sample recorded.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile estimates the q-th quantile (q in (0, 1]): the inclusive upper
// bound of the bucket holding the q-th sample, clamped to the observed
// maximum so Quantile(1) is exact. An empty histogram reports 0. Under
// concurrent Record the estimate is a consistent-enough snapshot, not a
// linearizable one.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := int64(0)
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the sample the quantile lands on —
	// nearest-rank ⌈q·N⌉, so a tail quantile over fewer than 1/(1−q) samples
	// still reports the tail.
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for b := 0; b < histBuckets; b++ {
		cum += counts[b]
		if cum >= rank {
			hi := bucketHi(b)
			if m := h.max.Load(); m < hi {
				hi = m
			}
			return float64(hi)
		}
	}
	return float64(h.max.Load())
}

// HistogramSnapshot is the JSON form of a histogram: count, sum, max, and
// the standard tail quantiles.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Max   int64   `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// QuerySample is the per-query tally the outermost pipeline stage records
// into the registry when the observatory is enabled.
type QuerySample struct {
	WallNanos      int64
	Rows           int64
	SeqPageReads   int64
	RandPageReads  int64
	PageWrites     int64
	TupleOps       int64
	Retries        int64
	BackoffNanos   int64
	QueueWaitNanos int64
	Failed         bool
}

// OpAggregate is the cumulative per-key (operator kind or relation) tally
// of the keyed metrics.
type OpAggregate struct {
	// Executions counts how many metered operator instances of this key
	// ran (one per plan node per execution).
	Executions int64 `json:"executions"`
	// Counters is the summed per-operator tally; MemBytes widens to the
	// largest high-water mark seen.
	Counters Counters `json:"counters"`
}

// Registry is the workload-level metrics registry. The zero of the
// observatory is a nil *Registry: every method no-ops on nil, so the
// disabled per-query overhead is one pointer comparison.
type Registry struct {
	// Queries counts completed top-level Exec calls (one per query,
	// however many attempts the resilient executor needed); Executions
	// counts individual plan executions including retries.
	Queries    Counter
	Executions Counter
	// Errors counts queries whose final outcome was an error; Sheds the
	// subset rejected by admission control; Retries the retry attempts the
	// resilient executor performed; BreakerTrips the circuit-breaker
	// openings observed.
	Errors       Counter
	Sheds        Counter
	Retries      Counter
	BreakerTrips Counter
	// Violations counts interval-calibration verdicts whose actual fell
	// outside the predicted [lo, hi].
	Violations Counter
	// Reopts counts mid-query guard violations the re-optimization stage
	// handled; ReoptSwitches, ReoptReplans, and ReoptDegrades split them
	// by the remedy chosen. WatchdogStalls counts progress-watchdog
	// no-progress cancellations.
	Reopts         Counter
	ReoptSwitches  Counter
	ReoptReplans   Counter
	ReoptDegrades  Counter
	WatchdogStalls Counter
	// ReoptTempsCreated and ReoptTempsReleased tally the temporaries the
	// re-optimization controller spooled and released. They must always be
	// equal once no query is in flight — the leak check error paths (which
	// carry no ExecResult) are audited against.
	ReoptTempsCreated  Counter
	ReoptTempsReleased Counter
	// ParallelQueries counts executions that ran with DOP > 1;
	// ParallelExchanges the exchange operators those executions ran.
	ParallelQueries   Counter
	ParallelExchanges Counter
	// WorkerRetries counts partition re-runs exchange workers absorbed
	// inside their own fault domain; DopDegrades and SerialFallbacks count
	// the degradation ladder's rungs — DOP halvings and drops to serial.
	// Recorded at decision time, so ladders that ultimately fail still
	// show their descent.
	WorkerRetries   Counter
	DopDegrades     Counter
	SerialFallbacks Counter

	// PlanCacheHits, PlanCacheMisses, and PlanCacheEvictions mirror the
	// shared plan cache's counters: hits are prepared executions served a
	// cached compiled module (paying only start-up-time activation),
	// misses paid a full optimization, evictions are LRU displacements.
	PlanCacheHits      Counter
	PlanCacheMisses    Counter
	PlanCacheEvictions Counter

	// PoolPages is the governor's grant-pool size; WorstQError the largest
	// q-error any calibration verdict has reported; PartitionSkewMax the
	// worst partition skew any parallel exchange has shown.
	PoolPages        Gauge
	WorstQError      Gauge
	PartitionSkewMax Gauge

	// Latency, QueueWait, and Backoff are nanosecond histograms; PagesRead
	// and RowsOut count per-query I/O volume and result size; ReplanNanos
	// tracks the optimizer time mid-query replans spent; ExchangeWait the
	// time parallel gathers spent blocked on worker batches;
	// WorkerRetryBackoff the nominal pause before each worker-retry
	// attempt (deterministic, from the retry policy — not measured).
	Latency            Histogram
	QueueWait          Histogram
	Backoff            Histogram
	PagesRead          Histogram
	RowsOut            Histogram
	ReplanNanos        Histogram
	ExchangeWait       Histogram
	WorkerRetryBackoff Histogram
	// Activation is the latency of start-up-time processing (choose-plan
	// resolution) — the cost a plan-cache hit still pays per execution.
	Activation Histogram

	// Traces counts finished query traces folded into the registry.
	Traces Counter

	mu      sync.Mutex
	ops     map[string]*OpAggregate
	rels    map[string]*OpAggregate
	calib   map[calibKey]*CalibrationReport
	stages  map[string]*Histogram
	tenants map[string]*tenantAgg
	log     queryLog
	traces  traceLog
}

// tenantAgg is one tenant's live admission account; counters and the
// wait histogram are atomic, so only map access needs the registry lock.
type tenantAgg struct {
	queries Counter
	errors  Counter
	sheds   Counter
	wait    Histogram
}

// TenantAggregate is one tenant's admission account as served by
// /metrics: completed queries, failures, admission rejections, and the
// queue-wait distribution — the numbers that make per-tenant fairness
// observable.
type TenantAggregate struct {
	Queries   int64             `json:"queries"`
	Errors    int64             `json:"errors,omitempty"`
	Sheds     int64             `json:"sheds,omitempty"`
	QueueWait HistogramSnapshot `json:"queue_wait_ns"`
}

// NewRegistry returns an empty, enabled registry whose query log retains
// the most recent logCap run records (DefaultQueryLogCap when logCap ≤ 0).
func NewRegistry(logCap int) *Registry {
	r := &Registry{
		ops:    make(map[string]*OpAggregate),
		rels:   make(map[string]*OpAggregate),
		calib:  make(map[calibKey]*CalibrationReport),
		stages: make(map[string]*Histogram),
	}
	r.log.init(logCap)
	r.traces.init(0)
	return r
}

// Enabled reports whether the registry is collecting; false on nil.
func (r *Registry) Enabled() bool { return r != nil }

// RecordQuery records one completed top-level query.
func (r *Registry) RecordQuery(s QuerySample) {
	if r == nil {
		return
	}
	r.Queries.Add(1)
	if s.Failed {
		r.Errors.Add(1)
	}
	r.Retries.Add(s.Retries)
	r.Latency.Record(s.WallNanos)
	if s.QueueWaitNanos > 0 {
		r.QueueWait.Record(s.QueueWaitNanos)
	}
	if s.BackoffNanos > 0 {
		r.Backoff.Record(s.BackoffNanos)
	}
	if !s.Failed {
		r.PagesRead.Record(s.SeqPageReads + s.RandPageReads)
		r.RowsOut.Record(s.Rows)
	}
}

// RecordShed counts one admission-control rejection.
func (r *Registry) RecordShed() {
	if r == nil {
		return
	}
	r.Sheds.Add(1)
}

// tenantAggFor returns (creating on first use) the named tenant's
// aggregate; nil for the anonymous tenant or a nil registry.
func (r *Registry) tenantAggFor(tenant string) *tenantAgg {
	if r == nil || tenant == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tenants == nil {
		r.tenants = make(map[string]*tenantAgg)
	}
	a := r.tenants[tenant]
	if a == nil {
		a = &tenantAgg{}
		r.tenants[tenant] = a
	}
	return a
}

// RecordTenantQuery charges one completed query to the tenant's account:
// its admission queue wait and whether it ultimately failed.
func (r *Registry) RecordTenantQuery(tenant string, queueWaitNanos int64, failed bool) {
	a := r.tenantAggFor(tenant)
	if a == nil {
		return
	}
	a.queries.Add(1)
	if failed {
		a.errors.Add(1)
	}
	a.wait.Record(queueWaitNanos)
}

// RecordTenantShed charges one admission rejection to the tenant.
func (r *Registry) RecordTenantShed(tenant string) {
	if a := r.tenantAggFor(tenant); a != nil {
		a.sheds.Add(1)
	}
}

// TenantSnapshot returns the named tenant's current aggregate; the zero
// value when the tenant has never been seen.
func (r *Registry) TenantSnapshot(tenant string) TenantAggregate {
	if r == nil {
		return TenantAggregate{}
	}
	r.mu.Lock()
	a := r.tenants[tenant]
	r.mu.Unlock()
	if a == nil {
		return TenantAggregate{}
	}
	return TenantAggregate{
		Queries:   a.queries.Load(),
		Errors:    a.errors.Load(),
		Sheds:     a.sheds.Load(),
		QueueWait: a.wait.Snapshot(),
	}
}

// RecordBreakerTrip counts one circuit-breaker opening.
func (r *Registry) RecordBreakerTrip() {
	if r == nil {
		return
	}
	r.BreakerTrips.Add(1)
}

// RecordReopt folds one query's mid-query re-optimization events into the
// counters and the replan-time histogram.
func (r *Registry) RecordReopt(events []ReoptEvent) {
	if r == nil || len(events) == 0 {
		return
	}
	for _, e := range events {
		switch e.Stage {
		case "violation":
			r.Reopts.Add(1)
		case "switch":
			r.ReoptSwitches.Add(1)
		case "replan":
			r.ReoptReplans.Add(1)
		case "degrade":
			r.ReoptDegrades.Add(1)
		}
		if e.PlanningNanos > 0 {
			r.ReplanNanos.Record(e.PlanningNanos)
		}
	}
}

// RecordParallel folds one parallel execution's summary into the
// registry: the query and exchange counts, the skew high-water mark, and
// each exchange's gather-wait sample.
func (r *Registry) RecordParallel(ps *ParallelStats) {
	if r == nil || ps == nil || ps.DOP <= 1 {
		return
	}
	r.ParallelQueries.Add(1)
	r.ParallelExchanges.Add(int64(len(ps.Exchanges)))
	r.PartitionSkewMax.SetMax(ps.MaxSkew())
	r.WorkerRetries.Add(ps.WorkerRetries)
	for _, e := range ps.Exchanges {
		r.ExchangeWait.Record(e.GatherWaitNanos)
		for _, ns := range e.RetryBackoffNanos {
			r.WorkerRetryBackoff.Record(ns)
		}
	}
}

// RecordDegrade counts one degradation-ladder step at decision time:
// "dop-halve" rungs land in DopDegrades, "serial-fallback" in
// SerialFallbacks.
func (r *Registry) RecordDegrade(rung string) {
	if r == nil {
		return
	}
	switch rung {
	case "dop-halve":
		r.DopDegrades.Add(1)
	case "serial-fallback":
		r.SerialFallbacks.Add(1)
	}
}

// RecordWatchdogStall counts one progress-watchdog no-progress trip.
func (r *Registry) RecordWatchdogStall() {
	if r == nil {
		return
	}
	r.WatchdogStalls.Add(1)
}

// RecordOperators folds an execution's stats tree into the keyed
// aggregates: each distinct node is charged once to its operator kind and,
// when it reads a base relation, to that relation.
func (r *Registry) RecordOperators(tree *PlanStats) {
	if r == nil || tree == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[*PlanStats]bool)
	var walk func(s *PlanStats)
	walk = func(s *PlanStats) {
		if seen[s] {
			return
		}
		seen[s] = true
		aggInto(r.ops, s.Op, s.Counters)
		if s.Rel != "" {
			aggInto(r.rels, s.Rel, s.Counters)
		}
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	walk(tree)
}

func aggInto(m map[string]*OpAggregate, key string, c Counters) {
	a := m[key]
	if a == nil {
		a = &OpAggregate{}
		m[key] = a
	}
	a.Executions++
	a.Counters.Add(c)
}

// RegistrySnapshot is the JSON form of the registry: the /metrics payload.
type RegistrySnapshot struct {
	Queries      int64 `json:"queries"`
	Executions   int64 `json:"executions"`
	Errors       int64 `json:"errors"`
	Sheds        int64 `json:"sheds"`
	Retries      int64 `json:"retries"`
	BreakerTrips int64 `json:"breaker_trips"`
	Violations   int64 `json:"interval_violations"`

	Reopts             int64 `json:"reopts,omitempty"`
	ReoptSwitches      int64 `json:"reopt_switches,omitempty"`
	ReoptReplans       int64 `json:"reopt_replans,omitempty"`
	ReoptDegrades      int64 `json:"reopt_degrades,omitempty"`
	WatchdogStalls     int64 `json:"watchdog_stalls,omitempty"`
	ReoptTempsCreated  int64 `json:"reopt_temps_created,omitempty"`
	ReoptTempsReleased int64 `json:"reopt_temps_released,omitempty"`

	ParallelQueries   int64 `json:"parallel_queries,omitempty"`
	ParallelExchanges int64 `json:"parallel_exchanges,omitempty"`
	WorkerRetries     int64 `json:"worker_retries,omitempty"`
	DopDegrades       int64 `json:"dop_degrades,omitempty"`
	SerialFallbacks   int64 `json:"serial_fallbacks,omitempty"`

	PlanCacheHits      int64 `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses    int64 `json:"plan_cache_misses,omitempty"`
	PlanCacheEvictions int64 `json:"plan_cache_evictions,omitempty"`

	PoolPages        float64 `json:"pool_pages,omitempty"`
	WorstQError      float64 `json:"worst_q_error,omitempty"`
	PartitionSkewMax float64 `json:"partition_skew_max,omitempty"`

	LatencyNanos       HistogramSnapshot `json:"latency_ns"`
	QueueWaitNanos     HistogramSnapshot `json:"queue_wait_ns"`
	BackoffNanos       HistogramSnapshot `json:"backoff_ns"`
	PagesRead          HistogramSnapshot `json:"pages_read"`
	RowsOut            HistogramSnapshot `json:"rows_out"`
	ReplanNanos        HistogramSnapshot `json:"replan_ns,omitempty"`
	ExchangeWait       HistogramSnapshot `json:"exchange_wait_ns,omitempty"`
	WorkerRetryBackoff HistogramSnapshot `json:"worker_retry_backoff_ns,omitempty"`
	Activation         HistogramSnapshot `json:"activation_ns"`

	Traces       int64                        `json:"traces,omitempty"`
	StageLatency map[string]HistogramSnapshot `json:"stage_latency_ns,omitempty"`

	Operators map[string]OpAggregate `json:"operators,omitempty"`
	Relations map[string]OpAggregate `json:"relations,omitempty"`
	// Tenants is the per-tenant admission view: one aggregate per tenant
	// that has executed (or been shed) under a non-empty identity.
	Tenants map[string]TenantAggregate `json:"tenants,omitempty"`
}

// Snapshot captures the registry's current state; nil on a nil registry.
func (r *Registry) Snapshot() *RegistrySnapshot {
	if r == nil {
		return nil
	}
	s := &RegistrySnapshot{
		Queries:            r.Queries.Load(),
		Executions:         r.Executions.Load(),
		Errors:             r.Errors.Load(),
		Sheds:              r.Sheds.Load(),
		Retries:            r.Retries.Load(),
		BreakerTrips:       r.BreakerTrips.Load(),
		Violations:         r.Violations.Load(),
		Reopts:             r.Reopts.Load(),
		ReoptSwitches:      r.ReoptSwitches.Load(),
		ReoptReplans:       r.ReoptReplans.Load(),
		ReoptDegrades:      r.ReoptDegrades.Load(),
		WatchdogStalls:     r.WatchdogStalls.Load(),
		ReoptTempsCreated:  r.ReoptTempsCreated.Load(),
		ReoptTempsReleased: r.ReoptTempsReleased.Load(),
		ParallelQueries:    r.ParallelQueries.Load(),
		ParallelExchanges:  r.ParallelExchanges.Load(),
		WorkerRetries:      r.WorkerRetries.Load(),
		DopDegrades:        r.DopDegrades.Load(),
		SerialFallbacks:    r.SerialFallbacks.Load(),
		PoolPages:          r.PoolPages.Load(),
		WorstQError:        r.WorstQError.Load(),
		PartitionSkewMax:   r.PartitionSkewMax.Load(),
		LatencyNanos:       r.Latency.Snapshot(),
		QueueWaitNanos:     r.QueueWait.Snapshot(),
		BackoffNanos:       r.Backoff.Snapshot(),
		PagesRead:          r.PagesRead.Snapshot(),
		RowsOut:            r.RowsOut.Snapshot(),
		ReplanNanos:        r.ReplanNanos.Snapshot(),
		ExchangeWait:       r.ExchangeWait.Snapshot(),
		WorkerRetryBackoff: r.WorkerRetryBackoff.Snapshot(),
		Activation:         r.Activation.Snapshot(),
		PlanCacheHits:      r.PlanCacheHits.Load(),
		PlanCacheMisses:    r.PlanCacheMisses.Load(),
		PlanCacheEvictions: r.PlanCacheEvictions.Load(),
		Traces:             r.Traces.Load(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stages) > 0 {
		s.StageLatency = make(map[string]HistogramSnapshot, len(r.stages))
		for k, h := range r.stages {
			s.StageLatency[k] = h.Snapshot()
		}
	}
	if len(r.ops) > 0 {
		s.Operators = make(map[string]OpAggregate, len(r.ops))
		for k, v := range r.ops {
			s.Operators[k] = *v
		}
	}
	if len(r.rels) > 0 {
		s.Relations = make(map[string]OpAggregate, len(r.rels))
		for k, v := range r.rels {
			s.Relations[k] = *v
		}
	}
	if len(r.tenants) > 0 {
		s.Tenants = make(map[string]TenantAggregate, len(r.tenants))
		for k, a := range r.tenants {
			s.Tenants[k] = TenantAggregate{
				Queries:   a.queries.Load(),
				Errors:    a.errors.Load(),
				Sheds:     a.sheds.Load(),
				QueueWait: a.wait.Snapshot(),
			}
		}
	}
	return s
}

// RecordCalibration folds an execution's calibration verdicts into the
// per-(kind, op, rel) reports and updates the violation counter and
// worst-q-error gauge.
func (r *Registry) RecordCalibration(verdicts []CalibrationVerdict) {
	if r == nil || len(verdicts) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range verdicts {
		key := calibKey{Kind: v.Kind, Op: v.Op, Rel: v.Rel}
		rep := r.calib[key]
		if rep == nil {
			rep = &CalibrationReport{Kind: v.Kind, Op: v.Op, Rel: v.Rel}
			r.calib[key] = rep
		}
		rep.observe(v)
		if v.Violation {
			r.Violations.Add(1)
		}
		r.WorstQError.SetMax(v.QError)
	}
}

// CalibrationReports returns the aggregated calibration table, worst
// offenders first (by max q-error, then violation rate); nil on a nil
// registry.
func (r *Registry) CalibrationReports() []CalibrationReport {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]CalibrationReport, 0, len(r.calib))
	for _, rep := range r.calib {
		out = append(out, *rep)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaxQError != out[j].MaxQError {
			return out[i].MaxQError > out[j].MaxQError
		}
		if ri, rj := out[i].ViolationRate(), out[j].ViolationRate(); ri != rj {
			return ri > rj
		}
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		return out[i].Rel < out[j].Rel
	})
	return out
}

// LogQuery appends a run record to the recent-query ring buffer.
func (r *Registry) LogQuery(rec *RunRecord) {
	if r == nil || rec == nil {
		return
	}
	r.log.append(rec)
}

// RecentQueries returns the retained run records, oldest first, up to max
// entries (all when max ≤ 0); nil on a nil registry.
func (r *Registry) RecentQueries(max int) []*RunRecord {
	if r == nil {
		return nil
	}
	return r.log.recent(max)
}

// RecordTrace folds one finished query trace into the registry: the
// bounded trace ring behind /traces, and one per-stage latency sample for
// every pipeline-stage span in the tree.
func (r *Registry) RecordTrace(rec *TraceRecord) {
	if r == nil || rec == nil {
		return
	}
	r.Traces.Add(1)
	r.traces.append(rec)
	if rec.Root == nil {
		return
	}
	rec.Root.Walk(func(s *Span) {
		if s.Kind != SpanStage {
			return
		}
		r.stageHistogram(s.Name).Record(s.DurationNanos)
	})
}

// stageHistogram returns (creating on first use) the latency histogram
// for the named pipeline stage.
func (r *Registry) stageHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stages == nil {
		r.stages = make(map[string]*Histogram)
	}
	h := r.stages[name]
	if h == nil {
		h = &Histogram{}
		r.stages[name] = h
	}
	return h
}

// StageLatency returns the named stage's latency histogram, or nil if the
// stage has never been traced (or the registry is disabled).
func (r *Registry) StageLatency(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stages[name]
}

// RecentTraces returns the retained trace records, oldest first, up to
// max entries (all when max ≤ 0); nil on a nil registry.
func (r *Registry) RecentTraces(max int) []*TraceRecord {
	if r == nil {
		return nil
	}
	return r.traces.recent(max)
}

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
