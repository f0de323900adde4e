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
// The package is dependency-free beyond the standard library and
// internal/physical (for plan-node identity), and every Collector method is
// safe on a nil receiver: a disabled collector is a nil pointer, so the
// executor's fast path is a single pointer comparison and allocates
// nothing (see TestDisabledCollectorAllocatesNothing).
package obs

import (
	"fmt"

	"dynplan/internal/physical"
)

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

// Collector gathers per-operator counters for one execution, keyed by plan
// node. Each execution makes its own, and only the goroutine running that
// execution touches it. The zero of observability is a nil *Collector:
// every method is nil-safe, so callers hold a plain pointer field and never
// branch beyond the nil check the methods perform themselves.
type Collector struct {
	stats map[*physical.Node]*Counters
	// cards are the predicted output cardinalities of the plan Tree
	// describes, one per distinct operator in post-order.
	cards []float64
}

// NewCollector returns an empty, enabled collector.
func NewCollector() *Collector {
	return &Collector{stats: make(map[*physical.Node]*Counters)}
}

// Predict attaches the cost model's predicted output cardinalities to the
// plan Tree describes, so the stats tree can be calibrated against them
// after execution: one per distinct operator, in post-order — an
// operator's inputs, left to right, before it, which is the order of the
// plan's lowered program. No-op on a nil collector.
func (c *Collector) Predict(cards []float64) {
	if c == nil {
		return
	}
	c.cards = cards
}

// Enabled reports whether the collector is collecting; false on nil.
func (c *Collector) Enabled() bool { return c != nil }

// StatsFor returns the counter struct for a plan node, creating it on
// first use. It returns nil on a nil collector — the disabled fast path.
func (c *Collector) StatsFor(n *physical.Node) *Counters {
	if c == nil {
		return nil
	}
	s, ok := c.stats[n]
	if !ok {
		s = &Counters{}
		c.stats[n] = s
	}
	return s
}

// PlanStats is one node of the stats tree that parallels the executed
// physical plan: the operator's label, its counters, and its inputs. It is
// both the EXPLAIN ANALYZE model and the plan-shape section of a JSON run
// record.
type PlanStats struct {
	Op       string   `json:"op"`
	Label    string   `json:"label"`
	Counters Counters `json:"counters"`
	// Rel names the base relation the operator reads, when it reads one —
	// the key the workload registry aggregates per-relation metrics under.
	Rel string `json:"rel,omitempty"`
	// Predicted is the cardinality predicted via Collector.Predict; QError
	// and Violation are filled in by Calibrate after execution.
	Predicted *Prediction  `json:"predicted,omitempty"`
	QError    float64      `json:"q_error,omitempty"`
	Violation bool         `json:"violation,omitempty"`
	Children  []*PlanStats `json:"children,omitempty"`
}

// Tree builds the stats tree for the plan rooted at root from the
// collected counters. Nodes the execution never compiled report zero
// counters. It returns nil on a nil collector.
func (c *Collector) Tree(root *physical.Node) *PlanStats {
	if c == nil || root == nil {
		return nil
	}
	memo := make(map[*physical.Node]*PlanStats)
	preds := make([]Prediction, 0, len(c.cards))
	return c.tree(root, memo, &preds)
}

// tree builds the stats of n's subplan, attaching the predictions in
// post-order; preds never outgrows its capacity, so they stay in place.
func (c *Collector) tree(n *physical.Node, memo map[*physical.Node]*PlanStats, preds *[]Prediction) *PlanStats {
	if s, ok := memo[n]; ok {
		return s
	}
	s := &PlanStats{Op: n.Op.String(), Label: n.Label(), Rel: n.Rel, Children: make([]*PlanStats, 0, len(n.Children))}
	memo[n] = s
	if cnt := c.stats[n]; cnt != nil {
		s.Counters = *cnt
	}
	for _, ch := range n.Children {
		s.Children = append(s.Children, c.tree(ch, memo, preds))
	}
	if k := len(*preds); k < len(c.cards) {
		*preds = append(*preds, Prediction{CardLo: c.cards[k], CardHi: c.cards[k]})
		s.Predicted = &(*preds)[k]
	}
	return s
}

// Total returns the execution-wide tally: the root's counters, whose I/O,
// tuple, fault, and wall figures are inclusive of the whole tree and whose
// Rows is the result cardinality. MemBytes is widened to the largest
// high-water mark anywhere in the tree (buffering operators below the root
// hold the real memory).
func (s *PlanStats) Total() Counters {
	if s == nil {
		return Counters{}
	}
	total := s.Counters
	seen := make(map[*PlanStats]bool)
	var walk func(p *PlanStats)
	walk = func(p *PlanStats) {
		if seen[p] {
			return
		}
		seen[p] = true
		if p.Counters.MemBytes > total.MemBytes {
			total.MemBytes = p.Counters.MemBytes
		}
		for _, ch := range p.Children {
			walk(ch)
		}
	}
	walk(s)
	return total
}

// NodeCount returns the number of distinct nodes in the stats tree.
func (s *PlanStats) NodeCount() int {
	if s == nil {
		return 0
	}
	seen := make(map[*PlanStats]bool)
	var walk func(p *PlanStats)
	walk = func(p *PlanStats) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, ch := range p.Children {
			walk(ch)
		}
	}
	walk(s)
	return len(seen)
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
