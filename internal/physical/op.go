// Package physical defines the physical algebra of the prototype (Table 1
// of the paper), the plan representation (a DAG of operator nodes with
// shared subplans), physical properties, and the interval cost model.
//
// The operator inventory matches the paper exactly:
//
//	Logical operator / property    Physical algorithm
//	---------------------------    -------------------------------
//	Get-Set                        File-Scan, B-tree-Scan
//	Select                         Filter, Filter-B-tree-Scan
//	Join                           Hash-Join, Merge-Join, Index-Join
//	Sort order (enforcer)          Sort
//	Plan robustness (enforcer)     Choose-Plan
//
// Cost functions return intervals (cost.Cost): the lower bound is
// evaluated with every uncertain parameter at its cheapest corner (lowest
// selectivities, most memory) and the upper bound at the costliest corner,
// relying on the paper's monotonicity assumption (§5): costs are
// nondecreasing in input sizes and nonincreasing in available memory.
package physical

import "fmt"

// Op identifies a physical operator.
type Op uint8

// The physical algebra (Table 1 of the paper).
const (
	// FileScan reads a relation's heap file sequentially.
	FileScan Op = iota
	// BtreeScan reads all records of a relation through an unclustered
	// B-tree, delivering them sorted on the index attribute at the price
	// of one random I/O per record.
	BtreeScan
	// FilterBtreeScan applies a range predicate through an unclustered
	// B-tree, fetching only qualifying records (one random I/O each).
	FilterBtreeScan
	// Filter applies a selection predicate to its input stream.
	Filter
	// HashJoin builds an in-memory (or Grace-partitioned) hash table on
	// its left input and probes with the right input.
	HashJoin
	// MergeJoin joins two inputs sorted on the join attributes.
	MergeJoin
	// IndexJoin probes an inner relation's B-tree once per outer record.
	IndexJoin
	// Sort is the enforcer for the sort-order property.
	Sort
	// ChoosePlan is the enforcer for the plan-robustness property: it
	// links equivalent alternative plans whose costs are incomparable at
	// compile-time and selects among them at start-up-time.
	ChoosePlan
	// TempScan reads a temporary result materialized at run-time. It
	// never appears in compile-time plans or access modules; the
	// re-optimization layer (internal/reopt — including the §7 extension:
	// choose-plan decision procedures that evaluate subplans) substitutes
	// it for materialized subplans, with BaseCard set to the *observed*
	// cardinality.
	TempScan
)

var opNames = [...]string{
	FileScan:        "File-Scan",
	BtreeScan:       "B-tree-Scan",
	FilterBtreeScan: "Filter-B-tree-Scan",
	Filter:          "Filter",
	HashJoin:        "Hash-Join",
	MergeJoin:       "Merge-Join",
	IndexJoin:       "Index-Join",
	Sort:            "Sort",
	ChoosePlan:      "Choose-Plan",
	TempScan:        "Temp-Scan",
}

// String returns the paper's name for the operator.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsScan reports whether the operator reads a base relation.
func (o Op) IsScan() bool { return o == FileScan || o == BtreeScan || o == FilterBtreeScan }

// Prop is a required or delivered physical property. The prototype's only
// ordering-like property is sort order, identified by a qualified
// attribute name ("R1.a"); the plan-robustness property is handled
// structurally by choose-plan insertion. The empty Prop requires nothing.
type Prop struct {
	// Order is the qualified attribute ("rel.attr") the output must be
	// sorted on; empty means no ordering requirement.
	Order string
}

// None is the empty requirement.
var None = Prop{}

// Satisfies reports whether a delivered property meets a requirement.
func (p Prop) Satisfies(req Prop) bool {
	return req.Order == "" || req.Order == p.Order
}

// String renders the property.
func (p Prop) String() string {
	if p.Order == "" {
		return "any"
	}
	return "sorted(" + p.Order + ")"
}
