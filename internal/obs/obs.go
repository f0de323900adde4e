// Package obs is the observability substrate of the system: per-operator
// runtime metrics, optimizer spans, and start-up decision traces, rendered
// both as human-readable EXPLAIN ANALYZE text and as machine-readable JSON
// run records the root package's ledger test byte-compares.
//
// The paper's entire evaluation (§6) is a measurement exercise —
// optimization time, plans compared, memo and module sizes, start-up cost,
// and predicted execution cost of static versus dynamic plans. This package
// turns those ad-hoc printouts into a first-class telemetry layer: the
// executor meters every Volcano iterator, the search engine reports what it
// enumerated and pruned, and activation records why each choose-plan branch
// was taken. It is also the substrate the ROADMAP's runtime-re-optimization
// direction needs: mid-query statistics collection presupposes per-operator
// counters that are free when disabled.
//
// The package is dependency-free beyond the standard library. It defines
// the per-operator tally and the stats tree; the executor fills them in:
// a metered run carves every operator's PlanStats from one post-order
// slab and returns it, and an unmetered operator's counter pointer is nil,
// so its fast path is a single pointer comparison and allocates nothing.
package obs

import "fmt"

// Counters is the per-operator tally a metered iterator accumulates.
// Page, tuple, fault, and wall-time counters are inclusive: they cover the
// operator and everything beneath it, because they are measured as deltas
// around the operator's own Open/Next/Close calls (the convention of
// EXPLAIN ANALYZE in mainstream systems). Rows, Opens, and NextCalls are
// the operator's own.
type Counters struct {
	// Opens and NextCalls count the iterator protocol traffic through the
	// operator; Rows counts the rows it produced. A protocol call moves a
	// vector of rows, so NextCalls counts batches (the last one the empty
	// end-of-stream call), not rows.
	Opens     int64 `json:"opens"`
	NextCalls int64 `json:"next_calls"`
	Rows      int64 `json:"rows"`

	// SeqPageReads, RandPageReads, PageWrites, and TupleOps are the
	// simulated-I/O account charged while the operator (or any input
	// beneath it) was running.
	SeqPageReads  int64 `json:"seq_page_reads"`
	RandPageReads int64 `json:"rand_page_reads"`
	PageWrites    int64 `json:"page_writes"`
	TupleOps      int64 `json:"tuple_ops"`

	// FaultsAbsorbed counts injected transient faults the storage layer
	// retried away during the operator's calls.
	FaultsAbsorbed int64 `json:"faults_absorbed,omitempty"`

	// WallNanos is the real time spent inside the operator's calls
	// (inclusive of inputs).
	WallNanos int64 `json:"wall_ns"`

	// MemBytes is the high-water mark of the operator's own buffered
	// memory (hash-join build side, sort workspace, spooled temporaries);
	// zero for streaming operators.
	MemBytes int64 `json:"mem_bytes,omitempty"`
}

// Add accumulates another tally into c, the aggregation primitive used
// when merging counters across operators or executions.
func (c *Counters) Add(d Counters) {
	c.Opens += d.Opens
	c.NextCalls += d.NextCalls
	c.Rows += d.Rows
	c.SeqPageReads += d.SeqPageReads
	c.RandPageReads += d.RandPageReads
	c.PageWrites += d.PageWrites
	c.TupleOps += d.TupleOps
	c.FaultsAbsorbed += d.FaultsAbsorbed
	c.WallNanos += d.WallNanos
	if d.MemBytes > c.MemBytes {
		c.MemBytes = d.MemBytes
	}
}

// CostRates are the per-unit charges that convert a tally into simulated
// seconds; they mirror the cost-model constants (physical.Params).
type CostRates struct {
	SeqPage  float64
	RandPage float64
	Write    float64
	Tuple    float64
}

// SimulatedSeconds converts the tally to simulated execution time.
func (c Counters) SimulatedSeconds(r CostRates) float64 {
	return float64(c.SeqPageReads)*r.SeqPage +
		float64(c.RandPageReads)*r.RandPage +
		float64(c.PageWrites)*r.Write +
		float64(c.TupleOps)*r.Tuple
}

// PlanStats is one node of the stats tree that parallels the executed
// physical plan: the operator's label, its counters, and its inputs. It is
// both the EXPLAIN ANALYZE model and the plan-shape section of a JSON run
// record. An executed plan is a tree, so every node has one parent and is
// visited once by a plain recursive walk.
type PlanStats struct {
	Op       string   `json:"op"`
	Label    string   `json:"label"`
	Counters Counters `json:"counters"`
	// Rel names the base relation the operator reads, when it reads one —
	// the key the workload registry aggregates per-relation metrics under.
	Rel string `json:"rel,omitempty"`
	// Predicted is the cost model's predicted cardinality, which the
	// pipeline attaches after the run; QError and Violation are filled in
	// by Calibrate.
	Predicted *Prediction  `json:"predicted,omitempty"`
	QError    float64      `json:"q_error,omitempty"`
	Violation bool         `json:"violation,omitempty"`
	Children  []*PlanStats `json:"children,omitempty"`
}

// formatBytes renders a byte count compactly.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
