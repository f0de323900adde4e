package dynplan

import (
	"errors"
	"net/http"
	"time"

	"dynplan/internal/obs"
)

// The workload observatory's types, re-exported for callers outside the
// module's internal tree. See internal/obs for the full documentation.
type (
	// MetricsSnapshot is the observatory's point-in-time view: query and
	// error counts, retry/shed/breaker tallies, latency and I/O histogram
	// quantiles, and per-operator / per-relation aggregates — the payload
	// the /metrics endpoint serves.
	MetricsSnapshot = obs.RegistrySnapshot
	// HistogramSnapshot is one log-bucketed histogram's summary (count,
	// sum, max, p50/p95/p99).
	HistogramSnapshot = obs.Histogram
	// CalibrationReport aggregates interval-calibration verdicts for one
	// (kind, operator, relation) key across the workload.
	CalibrationReport = obs.CalibrationReport
	// CalibrationVerdict is one predicted-vs-actual interval check: the
	// band the optimizer promised, the observed actual, the q-error, and
	// whether the actual fell outside the band.
	CalibrationVerdict = obs.CalibrationVerdict
)

// EnableObservatory turns on the workload observatory: a long-lived
// metrics registry every subsequent Exec call records into — query
// latency, queue wait, pages read, retries, sheds, and breaker trips as
// log-bucketed histograms and counters, per-operator and per-relation
// aggregates, a recent-query log, and the interval-calibration table
// comparing each operator's predicted cardinality interval and the plan's
// predicted cost interval against observed actuals (the paper's §5
// correctness condition, checked on real executions). It implies
// per-operator collection (see EnableObservability). Inspect the registry via
// MetricsSnapshot, Calibration, RecentQueries, or serve it over HTTP with
// Handler. Re-enabling installs a fresh registry, discarding prior
// aggregates. When disabled (the default), a query notes nothing and
// allocates nothing for the observatory.
func (db *Database) EnableObservatory() { db.metrics.Store(obs.NewRegistry()) }

// DisableObservatory removes the registry, dropping its aggregates.
// Per-operator collection the caller enabled with EnableObservability
// stays on.
func (db *Database) DisableObservatory() { db.metrics.Store(nil) }

// MetricsSnapshot captures the observatory's current state — the /metrics
// payload; nil while the observatory is disabled. The plan-cache counters
// and the governor's pool size are read from their owners here, when the
// snapshot is taken.
func (db *Database) MetricsSnapshot() *MetricsSnapshot {
	s := db.metrics.Load().Snapshot()
	if s == nil {
		return nil
	}
	cs := db.planCache.Stats()
	s.PlanCacheHits, s.PlanCacheMisses, s.PlanCacheEvictions = int64(cs.Hits), int64(cs.Misses), int64(cs.Evictions)
	if db.gov != nil {
		s.PoolPages = db.gov.Broker().Stats().TotalPages
	}
	return s
}

// Calibration returns the workload's interval-calibration reports, worst
// offenders first (largest max q-error, then violation rate): which
// operators and relations the optimizer's predicted intervals failed on,
// and by how much. Nil while the observatory is disabled.
func (db *Database) Calibration() []CalibrationReport {
	return db.metrics.Load().CalibrationReports()
}

// RecentQueries returns the observatory's retained run records, oldest
// first, up to max entries (all when max <= 0); nil while disabled.
func (db *Database) RecentQueries(max int) []*RunRecord {
	return db.metrics.Load().RecentQueries(max)
}

// Handler serves the observatory over HTTP: /metrics (JSON snapshot, the
// one MetricsSnapshot builds), /calibration (JSON reports, worst first),
// /queries (recent run records as JSON lines; ?n=K limits to the newest
// K), and /traces (recent query span trees as JSON lines; ?n=K likewise).
// While the observatory is disabled the endpoints answer 503, so the
// handler can be mounted once and survive Enable/Disable cycles.
func (db *Database) Handler() http.Handler {
	return obs.Handler(db.metrics.Load, db.MetricsSnapshot)
}

// outcome completes the query's account for the registry: the facts the
// stages noted on st.out while it ran, plus how it ended — a shed (the
// governor refused it, so it never started and counts apart from
// queries), a failure, or a result — and its /queries record. A failed
// query keeps everything it noted: its retries and backoff, its tenant
// and plan-cache verdict, its re-optimization and degradation events.
func (st *execState) outcome(res *ExecResult, err error, trace *obs.TraceRecord) *obs.Outcome {
	o := st.out
	o.Tenant = st.o.Tenant
	o.Trace = trace
	if errors.Is(err, ErrAdmission) {
		o.Shed = true
		return o
	}
	o.Retries = int64(st.retry.retries)
	for _, d := range st.retry.backoffs {
		o.BackoffNanos += d.Nanoseconds()
	}
	if t := st.admit.ticket; t != nil {
		o.QueueWaitNanos = t.Wait.Nanoseconds()
	}
	if err != nil {
		o.Failed = true
		o.Log = &obs.RunRecord{
			Name:              "query",
			Retries:           st.retry.retries,
			Backoffs:          len(st.retry.backoffs),
			BackoffTotalNanos: o.BackoffNanos,
			Reopt:             o.Reopt,
			Degrade:           o.Degrade,
			Error:             err.Error(),
			TraceID:           st.trace.t.ID(),
			Tenant:            st.o.Tenant,
			CacheHit:          st.o.cacheHit,
		}
	} else {
		o.PagesRead = res.SeqPageReads + res.RandPageReads
		o.Rows = int64(len(res.Rows))
		o.Parallel, o.Operators, o.Calibration = res.Parallel, res.Operators, res.Calibration
		o.Log = res.RunRecordFor("query", "", st.db.sys.params)
	}
	o.Log.WallNanos = o.WallNanos
	o.Log.UnixNanos = time.Now().UnixNano()
	return o
}
