package obs

import (
	"maps"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// This file is the workload observatory's metrics registry: the
// cross-query view the database keeps of every observed execution —
// counters and log-bucketed histograms over the whole workload, keyed by
// operator kind, base relation, pipeline stage and tenant, plus the
// interval-calibration table and the recent-query and trace rings the HTTP
// endpoints serve. Where a stats tree is a per-execution window (one
// query, metered by the executor), the Registry is the workload.
//
// The registry has one writer. While a query runs, the pipeline's stages
// note the facts they compute anyway on the query's own state; when it is
// over, the pipeline entry hands the finished account (an Outcome) to
// Record exactly once, after the trace is sealed. Record folds it under the
// registry's one lock, so every snapshot is internally consistent — a
// query is in all of its figures or in none of them. The disabled
// observatory is a nil *Registry: the pipeline notes nothing and never
// calls it, and every method is safe on nil.

// histBuckets is the number of log2 buckets a histogram holds: bucket 0
// collects non-positive samples, bucket i (i ≥ 1) the samples v with
// 2^(i-1) ≤ v < 2^i, so the full int64 range fits.
const histBuckets = 65

// Histogram is a log-bucketed histogram of non-negative int64 samples
// (latencies in nanoseconds, page counts, row counts). Buckets are powers
// of two, so Record is a few adds with no allocation and quantiles are
// exact to within a factor of two — tight enough for p50/p95/p99 tail
// tracking across a workload. The registry's lock guards every histogram
// it holds. Its JSON form is the count, sum and max plus the tail
// quantiles, which a registry snapshot fills in.
type Histogram struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Max   int64   `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`

	counts [histBuckets]int64
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

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.Count++
	if v > 0 {
		h.Sum += v
	}
	h.Max = max(h.Max, v)
}

// Quantile estimates the q-th quantile (q in (0, 1]): the inclusive upper
// bound of the bucket holding the q-th sample, clamped to the observed
// maximum so Quantile(1) is exact. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	// rank is the 1-based index of the sample the quantile lands on —
	// nearest-rank ⌈q·N⌉, so a tail quantile over fewer than 1/(1−q) samples
	// still reports the tail.
	rank := max(int64(math.Ceil(min(max(q, 0), 1)*float64(h.Count))), 1)
	cum := int64(0)
	for b, n := range h.counts {
		cum += n
		if cum >= rank {
			return float64(min(bucketHi(b), h.Max))
		}
	}
	return float64(h.Max)
}

// seal fills in the tail quantiles of a snapshot's copy.
func (h *Histogram) seal() {
	h.P50, h.P95, h.P99 = h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}

// OpAggregate is the cumulative per-key (operator kind or relation) tally
// of the keyed metrics.
type OpAggregate struct {
	// Executions counts how many metered operator instances of this key
	// ran (one per plan node per execution).
	Executions int64 `json:"executions"`
	// Counters is the summed per-operator tally; MemBytes widens to the
	// largest high-water mark observed.
	Counters Counters `json:"counters"`
}

// TenantAggregate is one tenant's admission account as served by
// /metrics: completed queries, failures, admission rejections, and the
// queue-wait distribution — the numbers that make per-tenant fairness
// observable.
type TenantAggregate struct {
	Queries   int64     `json:"queries"`
	Errors    int64     `json:"errors,omitempty"`
	Sheds     int64     `json:"sheds,omitempty"`
	QueueWait Histogram `json:"queue_wait_ns"`
}

// RegistrySnapshot is the registry's state and its JSON form, the /metrics
// payload: each metric is declared once, here. The plan-cache and
// pool-size figures are not the registry's — the database reads them from
// the cache and the governor when it takes a snapshot.
type RegistrySnapshot struct {
	// Queries counts completed top-level queries (one per query, however
	// many attempts the resilient executor needed); Executions counts
	// individual plan executions including retries. Errors counts queries
	// whose final outcome was an error; Sheds the admission rejections,
	// which are not queries; Retries the retry attempts the resilient
	// executor performed; BreakerTrips the circuit-breaker openings.
	// Violations counts interval-calibration verdicts whose actual fell
	// outside the predicted [lo, hi].
	Queries      int64 `json:"queries"`
	Executions   int64 `json:"executions"`
	Errors       int64 `json:"errors"`
	Sheds        int64 `json:"sheds"`
	Retries      int64 `json:"retries"`
	BreakerTrips int64 `json:"breaker_trips"`
	Violations   int64 `json:"interval_violations"`

	// Reopts counts mid-query guard violations the re-optimization stage
	// handled; ReoptSwitches, ReoptReplans, and ReoptDegrades split them by
	// the remedy chosen. ReoptTempsCreated and ReoptTempsReleased
	// tally the temporaries the re-optimization controllers spooled and
	// released (at their Finish); they are equal once no query is in
	// flight — the leak check error paths are audited against.
	Reopts             int64 `json:"reopts,omitempty"`
	ReoptSwitches      int64 `json:"reopt_switches,omitempty"`
	ReoptReplans       int64 `json:"reopt_replans,omitempty"`
	ReoptDegrades      int64 `json:"reopt_degrades,omitempty"`
	ReoptTempsCreated  int64 `json:"reopt_temps_created,omitempty"`
	ReoptTempsReleased int64 `json:"reopt_temps_released,omitempty"`

	// PlanCacheHits, PlanCacheMisses, and PlanCacheEvictions are the shared
	// plan cache's counters: hits are prepared executions served a cached
	// compiled module (paying only start-up-time activation), misses paid
	// a full optimization, evictions are LRU displacements.
	PlanCacheHits      int64 `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses    int64 `json:"plan_cache_misses,omitempty"`
	PlanCacheEvictions int64 `json:"plan_cache_evictions,omitempty"`

	// PoolPages is the governor's grant-pool size; WorstQError the largest
	// q-error any calibration verdict has reported.
	PoolPages   float64 `json:"pool_pages,omitempty"`
	WorstQError float64 `json:"worst_q_error,omitempty"`

	// LatencyNanos, QueueWaitNanos, and BackoffNanos are per-query
	// nanosecond histograms; PagesRead and RowsOut a successful query's I/O
	// volume and result size; ReplanNanos the optimizer time mid-query
	// replans spent. Activation is a query's total start-up-time
	// processing (choose-plan resolution) — the cost a plan-cache hit
	// still pays.
	LatencyNanos   Histogram `json:"latency_ns"`
	QueueWaitNanos Histogram `json:"queue_wait_ns"`
	BackoffNanos   Histogram `json:"backoff_ns"`
	PagesRead      Histogram `json:"pages_read"`
	RowsOut        Histogram `json:"rows_out"`
	ReplanNanos    Histogram `json:"replan_ns,omitempty"`
	Activation     Histogram `json:"activation_ns"`

	// Traces counts finished query traces; StageLatency holds one latency
	// histogram per pipeline stage, fed by their spans.
	Traces       int64                `json:"traces,omitempty"`
	StageLatency map[string]Histogram `json:"stage_latency_ns,omitempty"`

	Operators map[string]OpAggregate `json:"operators,omitempty"`
	Relations map[string]OpAggregate `json:"relations,omitempty"`
	// Tenants is the per-tenant admission view: one aggregate per tenant
	// that has executed (or been shed) under a non-empty identity.
	Tenants map[string]TenantAggregate `json:"tenants,omitempty"`
}

// Outcome is one finished query's account, the unit Record folds. The
// pipeline's stages note the facts they compute anyway while the query
// runs — accumulated across retry attempts and kept on error paths — and
// the pipeline entry adds the result or the failure once the query is
// over.
type Outcome struct {
	// Tenant is the identity the query ran under ("" when anonymous).
	// Shed marks an admission rejection, which counts apart from queries;
	// Failed a query whose final outcome was an error.
	Tenant       string
	Shed, Failed bool
	// WallNanos is the end-to-end latency, QueueWaitNanos the admission
	// queue wait, BackoffNanos the resilient executor's total backoff.
	WallNanos, QueueWaitNanos, BackoffNanos int64
	// Executions counts plan executions, Retries the retry attempts,
	// BreakerTrips the circuit-breaker openings the query caused.
	Executions, Retries, BreakerTrips int64
	// ActivationNanos is the total start-up time of a query that Activated.
	Activated       bool
	ActivationNanos int64
	// Reopt is every attempt's re-optimization events; TempsCreated and
	// TempsReleased the re-optimization controllers' temp ledger.
	Reopt                       []ReoptEvent
	TempsCreated, TempsReleased int64
	// PagesRead and Rows are a successful query's I/O volume and result
	// size; Operators and Calibration its stats tree and calibration
	// verdicts.
	PagesRead, Rows int64
	Operators       *PlanStats
	Calibration     []CalibrationVerdict
	// Log is the query's /queries record (nil for a shed); Trace its sealed
	// span tree (nil when untraced).
	Log   *RunRecord
	Trace *TraceRecord
}

// Registry is the workload-level metrics registry; see the file comment.
type Registry struct {
	mu     sync.Mutex
	m      RegistrySnapshot
	calib  map[calibKey]*CalibrationReport
	log    ring[*RunRecord]
	traces ring[*TraceRecord]
}

// NewRegistry returns an empty, enabled registry whose rings retain the
// most recent DefaultQueryLogCap run records and DefaultTraceLogCap traces.
func NewRegistry() *Registry {
	r := &Registry{calib: make(map[calibKey]*CalibrationReport)}
	r.log.buf = make([]*RunRecord, 0, DefaultQueryLogCap)
	r.traces.buf = make([]*TraceRecord, 0, DefaultTraceLogCap)
	return r
}

// Record folds one finished query into the registry — the registry's only
// mutating method, called once per query by the pipeline entry.
func (r *Registry) Record(o *Outcome) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := &r.m
	m.Executions += o.Executions
	m.BreakerTrips += o.BreakerTrips
	m.ReoptTempsCreated += o.TempsCreated
	m.ReoptTempsReleased += o.TempsReleased
	for _, e := range o.Reopt {
		switch e.Stage {
		case "violation":
			m.Reopts++
		case "switch":
			m.ReoptSwitches++
		case "replan":
			m.ReoptReplans++
		case "degrade":
			m.ReoptDegrades++
		}
		if e.PlanningNanos > 0 {
			m.ReplanNanos.Record(e.PlanningNanos)
		}
	}
	if o.Activated {
		m.Activation.Record(o.ActivationNanos)
	}
	if o.Trace != nil {
		m.Traces++
		r.traces.push(o.Trace)
		o.Trace.Root.Walk(func(s *Span) {
			if s.Kind == SpanStage {
				m.StageLatency = recordInto(m.StageLatency, s.Name, s.DurationNanos)
			}
		})
	}
	if o.Tenant != "" {
		if m.Tenants == nil {
			m.Tenants = make(map[string]TenantAggregate)
		}
		t := m.Tenants[o.Tenant]
		if o.Shed {
			t.Sheds++
		} else {
			t.Queries++
			if o.Failed {
				t.Errors++
			}
			t.QueueWait.Record(o.QueueWaitNanos)
		}
		m.Tenants[o.Tenant] = t
	}
	if o.Shed {
		m.Sheds++
		return
	}
	m.Queries++
	m.Retries += o.Retries
	m.LatencyNanos.Record(o.WallNanos)
	if o.QueueWaitNanos > 0 {
		m.QueueWaitNanos.Record(o.QueueWaitNanos)
	}
	if o.BackoffNanos > 0 {
		m.BackoffNanos.Record(o.BackoffNanos)
	}
	if o.Failed {
		m.Errors++
	} else {
		m.PagesRead.Record(o.PagesRead)
		m.RowsOut.Record(o.Rows)
	}
	if o.Operators != nil {
		m.foldOps(o.Operators)
	}
	for _, v := range o.Calibration {
		key := calibKey{Kind: v.Kind, Op: v.Op, Rel: v.Rel}
		rep := r.calib[key]
		if rep == nil {
			rep = &CalibrationReport{Kind: v.Kind, Op: v.Op, Rel: v.Rel}
			r.calib[key] = rep
		}
		rep.observe(v)
		if v.Violation {
			m.Violations++
		}
		m.WorstQError = max(m.WorstQError, v.QError)
	}
	if o.Log != nil {
		r.log.push(o.Log)
	}
}

// recordInto adds one sample to the named histogram of a keyed set,
// creating the set and the histogram on first use.
func recordInto(hs map[string]Histogram, key string, v int64) map[string]Histogram {
	if hs == nil {
		hs = make(map[string]Histogram)
	}
	h := hs[key]
	h.Record(v)
	hs[key] = h
	return hs
}

// foldOps charges each node of a stats tree to its operator kind and,
// when it reads a base relation, to that relation.
func (m *RegistrySnapshot) foldOps(s *PlanStats) {
	m.Operators = aggInto(m.Operators, s.Op, s.Counters)
	if s.Rel != "" {
		m.Relations = aggInto(m.Relations, s.Rel, s.Counters)
	}
	for _, ch := range s.Children {
		m.foldOps(ch)
	}
}

func aggInto(aggs map[string]OpAggregate, key string, c Counters) map[string]OpAggregate {
	if aggs == nil {
		aggs = make(map[string]OpAggregate)
	}
	a := aggs[key]
	a.Executions++
	a.Counters.Add(c)
	aggs[key] = a
	return aggs
}

// Snapshot captures the registry's current state; nil on a nil registry.
func (r *Registry) Snapshot() *RegistrySnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	s := r.m
	s.StageLatency = maps.Clone(r.m.StageLatency)
	s.Operators = maps.Clone(r.m.Operators)
	s.Relations = maps.Clone(r.m.Relations)
	s.Tenants = maps.Clone(r.m.Tenants)
	r.mu.Unlock()
	for _, h := range []*Histogram{&s.LatencyNanos, &s.QueueWaitNanos, &s.BackoffNanos,
		&s.PagesRead, &s.RowsOut, &s.ReplanNanos, &s.Activation} {
		h.seal()
	}
	for k, h := range s.StageLatency {
		h.seal()
		s.StageLatency[k] = h
	}
	for k, t := range s.Tenants {
		t.QueueWait.seal()
		s.Tenants[k] = t
	}
	return &s
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

// RecentQueries returns the retained run records, oldest first, up to max
// entries (all when max ≤ 0); nil on a nil registry.
func (r *Registry) RecentQueries(max int) []*RunRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.recent(max)
}

// RecentTraces returns the retained trace records, oldest first, up to
// max entries (all when max ≤ 0); nil on a nil registry.
func (r *Registry) RecentTraces(max int) []*TraceRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traces.recent(max)
}
