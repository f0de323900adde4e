package dynplan

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dynplan/internal/btree"
	"dynplan/internal/exec"
	"dynplan/internal/governor"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/plancache"
	"dynplan/internal/storage"
)

// Database is a populated instance of the system's catalog: tables,
// indexes, and the simulated-I/O accounting needed to actually run plans.
//
// A Database is safe for concurrent Exec calls once loaded: tables
// and indexes are read-only at query time, every execution gets its own
// accountant and metrics window, and the shared fault injector and
// resource governor are internally synchronized. Loading (Insert,
// GenerateData, BuildIndexes) must complete before queries start.
type Database struct {
	sys     *System
	store   *storage.Store
	indexes map[string]map[string]*btree.Tree
	loaded  map[string]bool
	// statsMu orders statistics refreshes against statistics readers:
	// Analyze (which rewrites catalog cardinalities mid-service) takes the
	// write side and plan compilation for the plan cache the read side, so
	// a prepared statement re-optimizing concurrently with an Analyze pass
	// sees either the old cardinalities or the new, never a mix.
	statsMu sync.RWMutex
	// faults holds the installed fault injector; atomic because
	// InjectFaults may race with in-flight executions, which snapshot the
	// pointer once and use that injector throughout.
	faults atomic.Pointer[storage.Injector]
	// observing is the caller's EnableObservability switch for
	// per-operator metrics; each execution collects into its own window, so
	// concurrent queries never share counters.
	observing atomic.Bool
	// metrics holds the workload observatory's registry when enabled
	// (EnableObservatory); nil means disabled. The pipeline entry reads it
	// once per query and is its only writer.
	metrics atomic.Pointer[obs.Registry]
	// tracing enables end-to-end span tracing (EnableTracing): every
	// execution builds a span tree over its pipeline stages; traceSeq
	// numbers the traces, making trace IDs deterministic per database.
	tracing  atomic.Bool
	traceSeq atomic.Uint64
	// gov, when non-nil, governs admission and memory grants for Governed
	// executions; breaker is the per-relation circuit breaker Resilient
	// executions consult. Both are internally synchronized.
	gov     *governor.Governor
	breaker *governor.Breaker
	// wrap, when non-nil, decorates every compiled iterator (the
	// leak-checking hook of the chaos harness; see exec.LeakChecker).
	wrap func(exec.Iterator, *physical.Node) exec.Iterator
	// planCache is the shared LRU of compiled access modules prepared
	// statements draw from, keyed on (query digest, catalog version);
	// assembled once at OpenDatabase.
	// catalogVersion counts statistics epochs: it starts at 1 and Analyze
	// bumps it, implicitly invalidating every cached plan compiled under
	// the old statistics.
	planCache      *plancache.Cache
	catalogVersion atomic.Uint64
}

// FaultConfig parameterizes deterministic fault injection on base-table
// page reads; see Database.InjectFaults. The zero value injects nothing.
type FaultConfig = storage.FaultConfig

// InjectFaults installs a deterministic fault injector: base-table page
// reads fail according to the config (transient or permanent, decided per
// page by a hash of the seed, so runs are reproducible), failed reads are
// charged simulated latency, and a memory-shrink event can revoke part of
// the memory grant mid-query. Injected failures wrap ErrFaultInjected
// plus ErrTransientIO or ErrPermanentIO. Subsequent executions run
// through the injector until the next InjectFaults replaces it.
func (db *Database) InjectFaults(cfg FaultConfig) {
	db.faults.Store(storage.NewInjector(cfg))
}

// injector returns the currently installed fault injector (nil when none);
// executions snapshot it once so a concurrent InjectFaults cannot change
// the substrate mid-query.
func (db *Database) injector() *storage.Injector { return db.faults.Load() }

// OpenDatabase creates an empty database for the system's catalog. Load
// rows with Insert (or GenerateData) and call BuildIndexes before
// executing plans that use B-trees.
func (s *System) OpenDatabase() *Database {
	db := &Database{
		sys:     s,
		store:   storage.NewStore(),
		indexes: make(map[string]map[string]*btree.Tree),
		loaded:  make(map[string]bool),
	}
	db.planCache = newPlanCache(defaultPlanCacheCapacity)
	db.catalogVersion.Store(1)
	return db
}

// PlanCacheStats returns the shared plan cache's hit/miss/eviction
// counters.
func (db *Database) PlanCacheStats() PlanCacheStats { return db.planCache.Stats() }

// PlanCacheStats is a point-in-time snapshot of the plan cache counters.
type PlanCacheStats = plancache.Stats

// Insert appends rows to a relation; each row must list the attribute
// values in schema order.
func (db *Database) Insert(relName string, rows ...[]int64) error {
	rel, err := db.sys.cat.Relation(relName)
	if err != nil {
		return err
	}
	t, err := db.store.Table(relName)
	if err != nil {
		t = storage.NewTable(relName, rel.RecordBytes)
		db.store.AddTable(t)
	}
	for _, r := range rows {
		if len(r) != len(rel.Attrs) {
			return fmt.Errorf("dynplan: row width %d does not match relation %s (%d attributes)",
				len(r), relName, len(rel.Attrs))
		}
		t.Append(storage.Row(r))
	}
	db.loaded[relName] = true
	return nil
}

// GenerateData fills every catalog relation with its declared cardinality
// of uniform rows (each attribute uniform over [0, DomainSize)), drawn
// deterministically from the seed — the data distribution the cost model
// assumes and the paper's experiments imply.
func (db *Database) GenerateData(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, rel := range db.sys.cat.Relations() {
		t := storage.NewTable(rel.Name, rel.RecordBytes)
		for i := 0; i < rel.Cardinality; i++ {
			row := make(storage.Row, len(rel.Attrs))
			for j, a := range rel.Attrs {
				row[j] = int64(rng.Intn(a.DomainSize))
			}
			t.Append(row)
		}
		db.store.AddTable(t)
		db.loaded[rel.Name] = true
	}
	return nil
}

// BuildIndexes constructs every B-tree the catalog declares over the
// loaded data. Call it after loading and before Exec.
func (db *Database) BuildIndexes() error {
	for _, rel := range db.sys.cat.Relations() {
		if !db.loaded[rel.Name] {
			continue
		}
		t, err := db.store.Table(rel.Name)
		if err != nil {
			return err
		}
		for j, a := range rel.Attrs {
			if !a.BTree {
				continue
			}
			if db.indexes[rel.Name] == nil {
				db.indexes[rel.Name] = make(map[string]*btree.Tree)
			}
			db.indexes[rel.Name][a.Name] = btree.Build(t, j, btree.DefaultOrder)
		}
	}
	return nil
}

// ExecResult carries an execution's output and its simulated-I/O account.
type ExecResult struct {
	// Rows are the result records; Columns names them ("R1.a", …). The
	// caller owns the rows and may write into them: they alias no stored
	// table data, no temporary and no other result.
	Rows    [][]int64
	Columns []string
	// SeqPageReads, RandPageReads, PageWrites and TupleOps are the
	// accounted work of the execution.
	SeqPageReads, RandPageReads, PageWrites, TupleOps int64

	// Retries is how many failed attempts preceded this result (always 0
	// without ExecOptions.Resilient).
	Retries int
	// BranchSwitched reports that a retry resolved the plan's choose-plan
	// operators to different alternatives than the first attempt.
	BranchSwitched bool
	// FaultsAbsorbed counts injected transient faults retried away at the
	// storage layer without any operator seeing an error.
	FaultsAbsorbed int64
	// EffectiveMemoryPages is the memory grant the successful execution
	// actually ran under; it is smaller than the bindings' grant after a
	// memory-shrink event forced a downgrade.
	EffectiveMemoryPages float64

	// Backoffs records, per retry a Resilient execution performed, the
	// pause it slept before that retry (empty without ExecOptions.Resilient
	// or when the policy has no backoff); BackoffTotal is their sum.
	Backoffs     []time.Duration
	BackoffTotal time.Duration

	// Admission carries the resource-governor account of the execution —
	// requested versus granted pages, queue wait, and the governor's shed
	// counters at completion; nil without ExecOptions.Governed.
	Admission *obs.AdmissionStats

	// Operators is the per-operator stats tree of the execution, parallel
	// to the executed plan; nil unless the database had observability
	// enabled (EnableObservability). Render it with ExplainAnalyze.
	Operators *obs.PlanStats
	// PlanDigest is a stable hash of the executed plan's shape and
	// Calibration the execution's interval-calibration verdicts
	// (predicted-vs-actual per operator, plus the plan-level cost check);
	// both are populated only while the workload observatory is enabled
	// (EnableObservatory).
	PlanDigest  string
	Calibration []obs.CalibrationVerdict
	// Decisions is the start-up decision trace of the activation that
	// produced the executed plan, when the execution path carries one
	// (a module target attaches it; Resilient executions add one entry per
	// retry describing the recovery decision and backoff; for explicit
	// activations use Activation.DecisionTrace).
	Decisions []obs.ChoiceTrace

	// Reopt carries the run-time adaptation account when the query ran
	// under a ReoptPolicy or with ExecOptions.Adaptive and anything
	// happened — guard violations or eager observations and the remedies
	// taken (switch, re-plan, degrade), temporaries spooled, selectivities
	// observed, planning time spent. Nil when nothing was observed or
	// neither option was set.
	Reopt *ReoptAccount

	// Tenant is the identity the query ran under (ExecOptions.Tenant or
	// the prepared-statement front end's tenant header); empty for
	// anonymous executions. PlanCacheHit reports that the executed module
	// was served from the shared plan cache rather than freshly compiled
	// (always false outside prepared execution).
	Tenant       string
	PlanCacheHit bool

	// TraceID identifies the query's span tree and Trace carries it, when
	// tracing was enabled (EnableTracing or ExecOptions.Trace): one span
	// per pipeline stage, remedy-loop run, and replan, with explicit
	// wait-state attribution. Render it with Trace.Render(), or fetch it
	// later from /traces by TraceID.
	TraceID string
	Trace   *obs.TraceRecord
}

// SimulatedSeconds converts the account to simulated execution time under
// the system's cost-model constants.
func (r *ExecResult) SimulatedSeconds(p Params) float64 {
	return float64(r.SeqPageReads)*p.SeqPageTime +
		float64(r.RandPageReads)*p.RandIOTime +
		float64(r.PageWrites)*p.SeqPageTime +
		float64(r.TupleOps)*p.TupleCPUTime
}

// Project returns a copy of the result restricted (and reordered) to the
// given qualified columns, implementing the logical Project operator of
// the paper's algebra at the result boundary. An empty column list
// projects nothing away: Project returns the receiver itself, not a copy.
func (r *ExecResult) Project(cols []string) (*ExecResult, error) {
	if len(cols) == 0 {
		return r, nil
	}
	perm := make([]int, len(cols))
	for i, c := range cols {
		found := -1
		for j, name := range r.Columns {
			if name == c {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("dynplan: projected column %q not in result schema %v", c, r.Columns)
		}
		perm[i] = found
	}
	// Copy the whole result — I/O account, resilience metadata, and
	// observability attachments survive post-processing — then replace
	// the projected columns and rows, the rows cut from one slab.
	out := &ExecResult{}
	*out = *r
	out.Columns = append([]string(nil), cols...)
	out.Rows = make([][]int64, len(r.Rows))
	flat := make([]int64, len(r.Rows)*len(perm))
	for i, row := range r.Rows {
		projected := flat[:len(perm):len(perm)]
		flat = flat[len(perm):]
		for k, j := range perm {
			projected[k] = row[j]
		}
		out.Rows[i] = projected
	}
	return out, nil
}
